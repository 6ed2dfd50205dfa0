// crashrecovery demonstrates the 2B-SSD durability story end to end:
// commits via the BA-buffer, an abrupt power failure (the capacitor-
// backed firmware dump), recovery, and a check that every committed
// transaction survived while un-synced bytes did not.
//
// The power failure is scripted through the fault-injection layer: a
// seeded fault.Plan arms a trigger on the 10th WAL commit, the demo
// polls the injector at transaction boundaries (the sim cannot kill an
// in-flight proc), and cuts power when the trigger trips — the same
// protocol the `bench2b crash` campaigns drive at scale.
package main

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

func main() {
	env := sim.NewEnv()
	// Install must precede the stack build: components cache the
	// injector at construction time.
	inj := fault.Install(env, fault.Plan{
		Seed:      1,
		PowerLoss: fault.Trigger{On: fault.EvWalCommit, N: 10},
	})
	ssd := core.New(env, core.DefaultConfig())
	fs := vfs.New(ssd.Device())

	env.Go("demo", func(p *sim.Proc) {
		f, err := fs.Create("txlog", 32<<20)
		if err != nil {
			panic(err)
		}
		// Where the log lives, stated once: two mapping-table entries
		// double-buffer the two halves of the BA-buffer.
		cfg := wal.Config{
			Mode: wal.BA, File: f, SegmentBytes: ssd.Config().BABufferBytes / 2,
			SSD: ssd, EIDs: []core.EID{0, 1},
		}
		log, err := wal.Open(env, cfg)
		if err != nil {
			panic(err)
		}

		// Commit transactions until the injected power trigger trips
		// (at the 10th commit, per the plan above).
		for i := 0; !inj.Tripped(); i++ {
			lsn, err := log.Append(p, []byte(fmt.Sprintf("txn-%02d: balance += 100", i)))
			if err != nil {
				panic(err)
			}
			if err := log.Commit(p, lsn); err != nil {
				panic(err)
			}
		}
		inj.Disarm()
		// Append one more but do NOT commit: its WC-buffered bytes are
		// allowed to vanish.
		if _, err := log.Append(p, []byte("txn-10: UNCOMMITTED")); err != nil {
			panic(err)
		}

		fmt.Println("power failure!")
		rep, err := ssd.PowerLoss(p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  firmware dump: %v on capacitor power (%.1f of %.1f mJ)\n",
			rep.DumpDuration, rep.EnergyUsedJ*1e3, rep.EnergyBudgetJ*1e3)
		fmt.Printf("  lost write-combining bursts (never synced): %d\n", rep.LostWCBursts)

		if err := ssd.PowerOn(p); err != nil {
			panic(err)
		}
		fmt.Println("power restored; BA-buffer and mapping table recovered from NAND")

		// Recover the log with a fresh handle (as a restarted DB would).
		log2, err := wal.Open(env, cfg)
		if err != nil {
			panic(err)
		}
		n := 0
		err = log2.Recover(p, func(_ wal.LSN, payload []byte) error {
			fmt.Printf("  replayed %q\n", payload)
			n++
			return nil
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("recovered %d committed transactions (uncommitted txn-10 correctly absent)\n", n)
	})
	env.Run()
}
