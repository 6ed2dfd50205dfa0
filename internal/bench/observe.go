package bench

import (
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// Probe drives one environment through every stage of the 2B-SSD
// datapath — block writes/reads/flush, BA_PIN, MMIO stores, BA_SYNC,
// BA_READ_DMA, BA_FLUSH, a gated block read, and BA-WAL commits — so a
// single `bench2b -metrics m.json -trace out.json probe` run exercises
// the nand, pcie, device, 2bssd and wal instrumentation end to end.
// The table reports the counters each layer recorded.
func Probe(r *Runner) *Table { return single(r, probe) }

func probe(s Scale) *Table {
	t := &Table{
		ID: "probe", Title: "Observability probe: one pass over every datapath stage",
		XLabel: "metric", Series: []string{"value"},
		Notes: []string{"pair with -metrics/-trace to capture the full report."},
	}

	env := sim.NewEnv()
	defer env.Shutdown()
	ssd := SSD2B(env)
	fs := vfs.New(ssd.Device())
	st := &stack{env: env, logFS: fs, ssd: ssd, mode: wal.BA}
	ps := ssd.PageSize()
	reps := s.LatReps
	if reps < 4 {
		reps = 4
	}

	var gateRejects int
	var avgCommit sim.Duration
	env.Go("probe", func(p *sim.Proc) {
		// Block datapath: writes through the buffer, reads, FLUSH.
		data, err := fs.Create("probe.dat", int64(64*ps))
		if err != nil {
			panic(err)
		}
		page := make([]byte, ps)
		for i := 0; i < reps; i++ {
			for j := range page {
				page[j] = byte(i + j)
			}
			if err := data.WriteAt(p, int64((i%64)*ps), page); err != nil {
				panic(err)
			}
		}
		for i := 0; i < reps; i++ {
			if err := data.ReadAt(p, int64((i%64)*ps), page); err != nil {
				panic(err)
			}
		}
		if err := ssd.Device().Flush(p); err != nil {
			panic(err)
		}

		// BA-WAL datapath: MMIO appends, BA_SYNC commits, BA_FLUSH on
		// segment rollover (double buffered).
		seg := 64 * ps
		logf, err := fs.Create("probe.log", int64(4*seg))
		if err != nil {
			panic(err)
		}
		wcfg := st.logConfig(logf, 0, 1)
		wcfg.SegmentBytes = seg
		l, err := wal.Open(env, wcfg)
		if err != nil {
			panic(err)
		}
		rec := make([]byte, 128)
		for i := 0; i < 4*reps; i++ {
			lsn, err := l.Append(p, rec)
			if err != nil {
				panic(err)
			}
			if err := l.Commit(p, lsn); err != nil {
				panic(err)
			}
		}
		if err := l.FlushToNAND(p); err != nil {
			panic(err)
		}
		avgCommit = obs.Of(env).Registry().Histo("wal.commit_ns").Mean()

		// Direct BA datapath on a scratch entry: pin a file range, store
		// over MMIO, make it durable, DMA it back, flush it out.
		pin, err := fs.Create("probe.pin", int64(8*ps))
		if err != nil {
			panic(err)
		}
		pinOff := 2 * seg // past the WAL's double-buffered window
		if err := ssd.BAPin(p, 2, pinOff, pin.LBA(0), 8); err != nil {
			panic(err)
		}
		if err := ssd.Mmio().Write(p, pinOff, page); err != nil {
			panic(err)
		}
		if err := ssd.BASync(p, 2); err != nil {
			panic(err)
		}
		if _, err := ssd.BAReadDMA(p, 2, page); err != nil {
			panic(err)
		}
		// A block read of the pinned range must bounce off the LBA
		// checker — the consistency mechanism the trace shows as a
		// gate_reject instant.
		if err := ssd.Device().ReadPagesInto(p, pin.LBA(0), page); err != nil {
			gateRejects++
		}
		if err := ssd.BAFlush(p, 2); err != nil {
			panic(err)
		}
	})
	env.Run()

	reg := obs.Of(env).Registry()
	dev := ssd.Device().Profile().Name
	for _, row := range [][2]string{
		{"block write cmds", dev + ".write_cmds"},
		{"block read cmds", dev + ".read_cmds"},
		{"nand page programs", "nand.page_programs"},
		{"nand page reads", "nand.page_reads"},
		{"mmio writes", "pcie.mmio_writes"},
		{"mmio syncs", "pcie.syncs"},
		{"ba pins", "2bssd.pins"},
		{"ba flushes", "2bssd.flushes"},
		{"ba syncs", "2bssd.syncs"},
		{"dma reads", "2bssd.dma_reads"},
	} {
		t.AddRow(row[0], float64(reg.Counter(row[1]).Value()))
	}
	t.AddRow("gated block reads", float64(gateRejects))
	t.AddRow("wal avg commit us", avgCommit.Micros())
	return t
}
