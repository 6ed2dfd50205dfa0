package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// smallFlash is an array of dies dies of 12 blocks of 8 pages.
func smallFlash(e *sim.Env, dies int) *nand.Flash {
	return nand.New(e, nand.Config{
		Channels:       1,
		DiesPerChannel: dies,
		BlocksPerDie:   12,
		PagesPerBlock:  8,
		PageSize:       4096,
		ReadLatency:    3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelMBps:    1200,
	})
}

// runBounded runs e to idle on another goroutine and fails the test if
// that takes longer than a wall-clock budget: a livelock at one
// instant never returns from Run, and the kernel panics on a deadlock.
// Procs of e report with t.Error, never t.Fatal: they do not run on the
// test's goroutine.
func runBounded(t *testing.T, e *sim.Env) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		e.Run()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("run: %v", p)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not end in 20 s: a livelock at one instant")
	}
}

// On 1-die and 2-die drives with the least over-provisioning New
// allows, four writers overwrite at random: every write lands, because
// an overwrite always leaves a victim, and ErrNoSpace means only that
// the pool is empty, nothing is erasing and there is no victim. The run
// ends (no deadlock, no livelock at one instant) and audits clean.
func TestNoSpaceOnlyWhenNothingToReclaim(t *testing.T) {
	for _, dies := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-die", dies), func(t *testing.T) {
			const writers = 4
			e := sim.NewEnv()
			f := New(e, smallFlash(e, dies), Config{})
			n := int(f.ExportedPages())
			done := 0
			for w := 0; w < writers; w++ {
				w := w
				e.Go("writer", func(p *sim.Proc) {
					defer func() { done++ }()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 40*n/writers; i++ {
						if err := f.WritePage(p, LBA(rng.Intn(n)), []byte{byte(i)}); err != nil {
							t.Errorf("writer %d op %d: %v", w, i, err)
							return
						}
					}
				})
			}
			runBounded(t, e)
			if done != writers {
				t.Fatalf("%d of %d writers finished", done, writers)
			}
			if counter(t, e, "ftl.gc_relocations") == 0 {
				t.Fatal("nothing was relocated: the drive never collected under load")
			}
			if err := f.Audit(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d-die: %d writes in %v, %d events, %d collections", dies, 40*n, sim.Duration(e.Now()), e.Events(), counter(t, e, "ftl.gc_runs"))
		})
	}
}

// The rule itself, on planted pools: a write that needs a block gets
// ErrNoSpace, at once, only with the pool empty, nothing erasing and no
// victim. With free blocks down to the relocation reserve and no victim
// it takes the reserve; with a victim it waits for the collector's
// erase and lands.
func TestNoSpaceRule(t *testing.T) {
	for _, dies := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-die", dies), func(t *testing.T) {
			e := sim.NewEnv()
			f := New(e, smallFlash(e, dies), Config{})
			fc := f.flash.Config()
			n := int(f.ExportedPages())
			e.Go("t", func(p *sim.Proc) {
				write := func(lba int) error { return f.WritePage(p, LBA(lba), []byte{byte(lba + 1)}) }
				// Whole blocks of LBAs once each, in order, and no
				// overwrite: every closed block holds only valid pages, so
				// there is no victim. The last block of each slot comes
				// out of the relocation reserve, which is as many blocks
				// as there are slots.
				stripe := fc.PagesPerBlock * len(f.open)
				last := (n/stripe - 1) * stripe
				for lba := 0; lba < last+stripe; lba++ {
					if lba == last {
						f.free = f.free[:f.relocSlots]
					}
					if err := write(lba); err != nil {
						t.Errorf("write %d: %v", lba, err)
						return
					}
				}
				if _, victim := f.pickVictim(); victim || len(f.free) != 0 || f.erasing != 0 {
					t.Errorf("victim %v, %d free blocks, %d erasing after the fill", victim, len(f.free), f.erasing)
					return
				}
				t0 := e.Now()
				if err := write(0); !errors.Is(err, ErrNoSpace) || e.Now() != t0 {
					t.Errorf("write with nothing to reclaim: %v after %v; want ErrNoSpace at once", err, sim.Duration(e.Now()-t0))
					return
				}
				// Trim a closed block empty: a victim with no valid page.
				// The write waits for its erase, then lands.
				victim := f.flash.Config().BlockOf(nand.PPA(0))
				for lba := 0; lba < n; lba++ {
					if ppa, ok := f.lookup(LBA(lba)); ok && fc.BlockOf(ppa) == victim {
						f.Trim(LBA(lba))
					}
				}
				t0 = e.Now()
				if err := write(1); err != nil {
					t.Errorf("write with a victim to reclaim: %v", err)
					return
				}
				if took := sim.Duration(e.Now() - t0); took < fc.EraseLatency {
					t.Errorf("write took %v: it did not wait for the victim's erase", took)
				}
			})
			runBounded(t, e)
			if err := f.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// hostSlot never picks a slot whose die has a victim waiting for its
// erase while another slot's die has none — the round-robin pick and
// the back-to-back rewrite alike — and with every die erasing it takes
// the cursor's slot.
func TestHostSlotSkipsErasingDies(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	dies := fc.Dies()
	e.Go("t", func(p *sim.Proc) {
		for lba := 0; lba < dies; lba++ { // every slot opens a block on its own die
			if err := f.WritePage(p, LBA(lba), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.Run()
	f.housekeeping()
	queue := func(die int) { // a victim waits on die's eraser
		f.erasers[die].queue = append(f.erasers[die].queue, nand.BlockID(die*fc.BlocksPerDie+fc.BlocksPerDie-1))
	}
	slotDie := func(d int) int { return int(f.open[d].blk) / fc.BlocksPerDie }
	queue(1)
	queue(2)
	for i := 0; i < 4*dies; i++ {
		if d := slotDie(f.hostSlot(LBA(100 + i))); d == 1 || d == 2 {
			t.Fatalf("pick %d: a fresh write went to erasing die %d", i, d)
		}
	}
	// LBA 1's copy is the last page of slot 1's block: a back-to-back
	// rewrite would go there, but die 1 is erasing.
	if d := f.hostSlot(1); slotDie(d) == 1 {
		t.Fatal("a back-to-back rewrite went to the erasing die")
	}
	f.erasers[1].queue = f.erasers[1].queue[:0]
	if d := f.hostSlot(1); d != 1 {
		t.Fatalf("a back-to-back rewrite went to slot %d with its die free, want 1", d)
	}
	for die := 0; die < dies; die++ {
		if len(f.erasers[die].queue) == 0 {
			queue(die)
		}
	}
	cursor := f.nextDie
	if d := f.hostSlot(LBA(200)); d != cursor {
		t.Fatalf("with every die erasing the write went to slot %d, want the cursor's %d", d, cursor)
	}
}

// A host write that lands while the collector evacuates a multi-run
// victim takes its own transfer and program, not the batch: collection
// runs on the collector, and the write only wakes it. With collection
// on the writing path the write queued on gcLock behind every run.
func TestHostWriteDoesNotWaitForEvacuation(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, runFlash(e), Config{OverProvision: 0.25})
	fc := f.flash.Config()
	n := int(f.ExportedPages())
	rng := rand.New(rand.NewSource(3))
	var took sim.Duration
	var batch bool
	e.Go("writer", func(p *sim.Proc) {
		for i := 0; took == 0; i++ {
			if i == 100*n {
				t.Error("no multi-run evacuation in the run")
				return
			}
			if err := f.WritePage(p, LBA(rng.Intn(n)), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.Go("probe", func(p *sim.Proc) {
		for took == 0 {
			p.Sleep(sim.Microsecond)
			if f.gcLock.InUse() == 0 || len(f.evacSrc) <= relocRunPages {
				continue
			}
			// A slot with room, on a die that neither the victim's reads
			// nor an erase hold, so nothing but the batch could delay it.
			victim := fc.DieOf(f.evacSrc[0])
			slot := -1
			for d, ob := range f.open {
				if die := f.dieOf(ob.blk); ob.room(fc.PagesPerBlock) && die != victim && !f.erasingOn(die) && f.flash.DieIdle(die) {
					slot = d
					break
				}
			}
			if slot < 0 {
				continue
			}
			f.nextDie = slot
			blk := fc.BlockOf(f.evacSrc[0])
			t0 := e.Now()
			if err := f.WritePage(p, LBA(rng.Intn(n)), []byte{2}); err != nil {
				t.Fatal(err)
			}
			took = sim.Duration(e.Now() - t0)
			batch = f.validCount[blk] > 0 // the victim still holds pages not rebound
		}
	})
	e.Run()
	if !batch {
		t.Fatal("the write did not return while the batch was still moving the victim")
	}
	if want := fc.TransferTime(fc.PageSize) + fc.ProgramLatency; took > want+fc.TransferTime(relocRunPages*fc.PageSize) {
		t.Fatalf("the write took %v during an evacuation; want its own transfer and program, %v, plus at most one run's transfer on its channel", took, want)
	}
}

// While the collector is stopped for a power-loss dump, a write that
// needs a block at the relocation reserve, with a victim to reclaim,
// does not take the reserve: it waits, and lands once StartGC lets the
// collector reclaim the victim.
func TestStoppedCollectorKeepsTheReserve(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, smallFlash(e, 2), Config{})
	fc := f.flash.Config()
	stripe := fc.PagesPerBlock * len(f.open)
	last := (int(f.ExportedPages())/stripe - 1) * stripe
	const pause = 5 * sim.Millisecond
	var started sim.Time
	e.Go("t", func(p *sim.Proc) {
		for lba := 0; lba < last; lba++ {
			if err := f.WritePage(p, LBA(lba), []byte{1}); err != nil {
				t.Errorf("fill %d: %v", lba, err)
				return
			}
		}
		for lba := 0; lba < last; lba++ { // block 0 keeps no valid page: a victim
			if ppa, ok := f.lookup(LBA(lba)); ok && fc.BlockOf(ppa) == 0 {
				f.Trim(LBA(lba))
			}
		}
		f.free = f.free[:f.relocSlots]
		f.StopGC()
		e.Go("power-on", func(q *sim.Proc) {
			q.Sleep(pause)
			started = e.Now()
			f.StartGC()
		})
		if err := f.WritePage(p, LBA(last), []byte{2}); err != nil {
			t.Errorf("write with the collector stopped: %v", err)
			return
		}
		if started == 0 {
			t.Errorf("the write landed at %v, before the collector started again: it took the reserve", sim.Duration(e.Now()))
		} else if sim.Duration(e.Now()-started) < fc.EraseLatency {
			t.Errorf("the write landed %v after the collector started: not behind the victim's erase", sim.Duration(e.Now()-started))
		}
		if len(f.free) != f.relocSlots {
			t.Errorf("%d free blocks after the write, want the reserve's %d", len(f.free), f.relocSlots)
		}
	})
	runBounded(t, e)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// runOn starts the relocation of victim, a full block, on its own proc
// and returns at the first instant its run programs: relocation slot
// 0's lock is taken, its open block is on the run's die, and that die
// is busy. It reports the die, or -1 if that instant never came.
func runOn(t *testing.T, p *sim.Proc, f *FTL, victim nand.BlockID) int {
	t.Helper()
	f.housekeeping() // the relocation frontier, if no collection made it
	f.env.Go("relocation", func(q *sim.Proc) {
		f.gcLock.Acquire(q)
		defer f.gcLock.Release()
		if err := f.evacuate(q, victim); err != nil {
			t.Errorf("evacuate: %v", err)
		}
	})
	for i := 0; i < 1000; i++ {
		p.Sleep(sim.Microsecond)
		if ob := f.relocOpen[0]; f.relocLocks[0].InUse() > 0 && ob.nextPage >= 0 && !f.flash.DieIdle(f.dieOf(ob.blk)) {
			return f.dieOf(ob.blk)
		}
	}
	t.Error("the relocation run never held its die")
	return -1
}

// A host write passes over a die that a relocation run programs. With
// the run's die at the cursor, the write lands on another die in its
// own transfer and tPROG; queued behind the run it waited for up to
// 8 × tPROG.
func TestHostWritePassesOverARelocationRun(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	const lba = 100 // unmapped: no back-to-back slot
	e.Go("t", func(p *sim.Proc) {
		die := runOn(t, p, f, fullBlocks(t, p, f))
		if die < 0 {
			return
		}
		f.nextDie = die // every slot's block is full: slot d opens its next one on die d
		t0 := e.Now()
		if err := f.WritePage(p, lba, []byte{1}); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		took := sim.Duration(e.Now() - t0)
		ppa, _ := f.lookup(lba)
		if landed := fc.DieOf(ppa); landed == die {
			t.Errorf("the write landed on die %d, which the relocation run holds", die)
		}
		if want := fc.TransferTime(fc.PageSize) + fc.ProgramLatency; took != want {
			t.Errorf("the write took %v; want its own transfer and program, %v", took, want)
		}
	})
	runBounded(t, e)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// With every die held by housekeeping a host write still lands: it
// falls back first to the die that only a relocation run holds, and
// waits for the run there, and with every die erasing to the cursor's.
func TestHostWriteLandsWithEveryDieHeld(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	queue := func(die int) { // a victim waits on die's eraser
		f.erasers[die].queue = append(f.erasers[die].queue, nand.BlockID(die*fc.BlocksPerDie+fc.BlocksPerDie-1))
	}
	e.Go("t", func(p *sim.Proc) {
		runDie := runOn(t, p, f, fullBlocks(t, p, f))
		if runDie < 0 {
			return
		}
		for die := 0; die < fc.Dies(); die++ {
			if die != runDie {
				queue(die)
			}
		}
		f.nextDie = (runDie + 1) % fc.Dies()
		t0 := e.Now()
		if err := f.WritePage(p, 100, []byte{1}); err != nil {
			t.Errorf("write with every die held: %v", err)
			return
		}
		if ppa, _ := f.lookup(100); fc.DieOf(ppa) != runDie {
			t.Errorf("the write landed on erasing die %d, want the relocating die %d", fc.DieOf(ppa), runDie)
		}
		if took := sim.Duration(e.Now() - t0); took <= fc.TransferTime(fc.PageSize)+fc.ProgramLatency {
			t.Errorf("the write took %v: it did not wait for the run", took)
		}
		queue(runDie)
		cursor := f.nextDie
		if err := f.WritePage(p, 101, []byte{1}); err != nil {
			t.Errorf("write with every die erasing: %v", err)
			return
		}
		if ppa, _ := f.lookup(101); fc.DieOf(ppa) != f.slotDie(cursor) {
			t.Errorf("with every die erasing the write landed on die %d, want the cursor's %d", fc.DieOf(ppa), f.slotDie(cursor))
		}
		for die := range f.erasers {
			f.erasers[die].queue = f.erasers[die].queue[:0]
		}
	})
	runBounded(t, e)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}
