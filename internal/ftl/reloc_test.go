package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// runFlash is an array whose blocks hold four relocation runs: victims
// with more than relocRunPages valid pages go to the worker procs.
func runFlash(e *sim.Env) *nand.Flash {
	return nand.New(e, nand.Config{
		Channels:       2,
		DiesPerChannel: 4,
		BlocksPerDie:   16,
		PagesPerBlock:  4 * relocRunPages,
		PageSize:       4096,
		ReadLatency:    3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelMBps:    1200,
	})
}

// Steady-state GC with the host aiming at the victim. Four writers pick
// their next LBA from the block being evacuated (or, between
// collections, from the block the next collection will pick), so the
// writes still in flight when a collection starts land on pages its
// runs are reading and programming; a fifth proc trims pages of the
// victim while the runs are under way. Each proc owns a residue class of
// LBAs, so the last acknowledged state of every LBA is unambiguous. A
// relocation may never undo any of it: a copy whose source was
// overwritten or trimmed between the run's read and its rebind loses.
// With 15 % over-provisioning victims stay full enough that pages a
// collection moved often sit in the next victim too; at 25 % few did
// once erases left the collecting proc, and each collection ended
// sooner.
func TestRelocationRunsNeverRevertHostWrite(t *testing.T) {
	const writers = 4
	const classes = writers + 1 // the last class is the trimmer's
	e := sim.NewEnv()
	f := New(e, runFlash(e), Config{OverProvision: 0.15})
	fc := f.flash.Config()
	n := int(f.ExportedPages()) / classes * classes
	stamp := func(lba, ver int) []byte { return []byte(fmt.Sprintf("lba%05d-v%06d|", lba, ver)) }
	acked := make([]int, n) // last acknowledged version; -1: trimmed
	check := func(p *sim.Proc, lba int, when string) {
		got := make([]byte, f.PageSize())
		if err := f.ReadPageInto(p, LBA(lba), got); err != nil {
			t.Fatalf("%s: read %d: %v", when, lba, err)
		}
		want := stamp(lba, acked[lba])
		if acked[lba] < 0 {
			want = make([]byte, len(want))
		}
		if !bytes.HasPrefix(got, want) {
			t.Fatalf("%s: lba %d reads %q, last acknowledged state was %q", when, lba, got[:len(want)], want)
		}
	}
	// victimLBAs lists class c's LBAs with a valid page in the block
	// under evacuation, or in the next victim when none is.
	moving := func() bool { return f.gcLock.InUse() > 0 && len(f.evacSrc) > 0 }
	victimLBAs := func(c int, dst []int) []int {
		src := f.evacSrc
		if !moving() {
			src = nil
			if blk, ok := f.pickVictim(); ok {
				src = f.validPages(blk, nil)
			}
		}
		for _, ppa := range src {
			if lba, ok := f.owner(ppa); ok && int(lba)%classes == c {
				dst = append(dst, int(lba))
			}
		}
		return dst
	}
	var midMoveWrites, midMoveTrims, twiceInARow int
	done := 0
	e.Go("fill", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := f.WritePage(p, LBA(i), stamp(i, 0)); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		for w := 0; w < writers; w++ {
			w := w
			e.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				defer func() { done++ }() // also when a failed check ends the proc
				rng := rand.New(rand.NewSource(int64(11 + w)))
				var cand []int
				for op := 0; op < 2*n; op++ {
					lba := rng.Intn(n/classes)*classes + w
					if cand = victimLBAs(w, cand[:0]); len(cand) > 0 {
						lba = cand[rng.Intn(len(cand))]
					}
					src, _ := f.lookup(LBA(lba))
					if err := f.WritePage(p, LBA(lba), stamp(lba, acked[lba]+1)); err != nil {
						t.Fatalf("writer %d op %d: %v", w, op, err)
					}
					acked[lba]++
					if moving() && fc.BlockOf(src) == fc.BlockOf(f.evacSrc[0]) {
						midMoveWrites++ // replaced a page of the block being moved
					}
					if op%16 == 0 {
						check(p, rng.Intn(n/classes)*classes+w, "mid-run")
					}
				}
			})
		}
		e.Go("trimmer", func(p *sim.Proc) {
			var cand, trimmed []int
			var lastVictim nand.BlockID
			prev := map[LBA]bool{}
			for done < writers {
				p.Sleep(7 * sim.Microsecond)
				if !moving() {
					if len(trimmed) > 0 { // bring a trimmed LBA back for the next round
						lba := trimmed[len(trimmed)-1]
						trimmed = trimmed[:len(trimmed)-1]
						if err := f.WritePage(p, LBA(lba), stamp(lba, 1)); err != nil {
							t.Fatalf("trimmer rewrite: %v", err)
						}
						acked[lba] = 1
					}
					continue
				}
				if v := fc.BlockOf(f.evacSrc[0]); v != lastVictim {
					// A new victim: does it hold pages the last one moved?
					cur := map[LBA]bool{}
					for _, ppa := range f.evacSrc {
						if lba, ok := f.owner(ppa); ok {
							cur[lba] = true
							if prev[lba] {
								twiceInARow++
							}
						}
					}
					prev, lastVictim = cur, v
				}
				if cand = victimLBAs(writers, cand[:0]); len(cand) > 0 {
					lba := cand[0]
					if err := f.Trim(LBA(lba)); err != nil {
						t.Fatalf("trim: %v", err)
					}
					acked[lba] = -1
					trimmed = append(trimmed, lba)
					midMoveTrims++
				}
			}
		})
	})
	e.Run()
	relocs := counter(t, e, "ftl.gc_relocations")
	if relocs == 0 || f.relocQ == nil {
		t.Fatalf("workload never handed a run to the relocation workers (%d relocations); the test exercises nothing", relocs)
	}
	if midMoveWrites == 0 || midMoveTrims == 0 || twiceInARow == 0 {
		t.Fatalf("races not exercised: %d host writes and %d trims landed on a block being moved, %d pages sat in two consecutive victims",
			midMoveWrites, midMoveTrims, twiceInARow)
	}
	t.Logf("%d relocations; %d writes and %d trims hit a block mid-move; %d pages in two consecutive victims",
		relocs, midMoveWrites, midMoveTrims, twiceInARow)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	e.Go("verify", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			check(p, i, "end of run")
		}
	})
	e.Run()
}

// The path kv-block lives on: a victim with no valid page is reclaimed
// without the relocation machinery, no worker started and no relocation
// block opened. Its erase runs on the die's eraser, so the writer waits
// for none of the 138: the run took 352 042 368 ns and 3 208 events
// when each erase ran inline, and 169 249 529 ns and 3 389 events when
// the writer collected. A write that wakes the collector hands it its
// victim and passes over that die; when the write yielded instead, so
// that the collector queued the erase before the write picked a die,
// the run took 170 549 339 ns and 3 658 events, and without either the
// writer picks the die an erase is about to take and the run takes
// 191 ms. The collector's 116 resumptions are most of the 124 events
// over the count when the writer collected.
func TestZeroValidVictimPathIsUntouched(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	n := int(f.ExportedPages())
	e.Go("t", func(p *sim.Proc) {
		for pass := 0; pass < 4; pass++ { // sequential overwrites empty whole blocks
			for i := 0; i < n; i++ {
				if err := f.WritePage(p, LBA(i), []byte{byte(pass + 1)}); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
		}
	})
	e.Run()
	if runs, relocs := counter(t, e, "ftl.gc_runs"), counter(t, e, "ftl.gc_relocations"); runs != 138 || relocs != 0 {
		t.Fatalf("gc runs %d, relocations %d; want 138 zero-valid victims", runs, relocs)
	}
	if e.Now() != 165960945 || e.Events() != 3513 {
		t.Fatalf("virtual time %d, events %d; want 165960945, 3513", e.Now(), e.Events())
	}
	if f.relocQ != nil || f.evacSrc != nil || slices.ContainsFunc(f.relocOpen, func(ob openBlock) bool { return ob.nextPage >= 0 }) {
		t.Fatal("reclaiming empty victims started the relocation machinery")
	}
}

// Writers faster than the erasers take the pool down to the relocation
// reserve while victims are still erasing: a write that needs a fresh
// block then waits for an erase (hostPage) instead of failing with
// ErrNoSpace, every write still lands, and the pool audits clean
// whenever a write returns.
func TestWritesWaitForPendingErase(t *testing.T) {
	const writers = 32
	e := sim.NewEnv()
	f := newTestFTL(e)
	n := int(f.ExportedPages()) / writers * writers
	acked := make([]int, n)
	waits, done := 0, 0
	for w := 0; w < writers; w++ {
		w := w
		e.Go("writer", func(p *sim.Proc) {
			defer func() { done++ }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 16*n/writers; i++ {
				lba := rng.Intn(n/writers)*writers + w
				if err := f.WritePage(p, LBA(lba), []byte(fmt.Sprintf("v%d", acked[lba]+1))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[lba]++
				if err := f.Audit(); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		})
	}
	e.Go("watch", func(p *sim.Proc) {
		for done < writers {
			if f.erased != nil && f.erased.Waiters() > 0 {
				waits++
			}
			p.Sleep(sim.Microsecond)
		}
	})
	e.Run()
	if waits == 0 {
		t.Fatal("no write waited for an erase: the pool never ran dry")
	}
	e.Go("verify", func(p *sim.Proc) {
		got := make([]byte, f.PageSize())
		for lba, v := range acked {
			if v == 0 {
				continue
			}
			if err := f.ReadPageInto(p, LBA(lba), got); err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("v%d\x00", v))) {
				t.Fatalf("lba %d: %q, %v; want version %d", lba, got[:8], err, v)
			}
		}
	})
	e.Run()
}

// A drive that never reaches the GC trigger spawns nothing and
// schedules nothing it did not schedule before (the event count of
// TestWAFOneForSequentialFill at the parent commit).
func TestNoCollectionNoRelocationProcs(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < int(f.ExportedPages()); i++ {
			if err := f.WritePage(p, LBA(i), []byte{1}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	})
	e.Run()
	if e.Now() != 20510592 || e.Events() != 769 {
		t.Fatalf("virtual time %d, events %d; want 20510592, 769", e.Now(), e.Events())
	}
	if f.relocQ != nil || f.evacSrc != nil || f.skip != nil {
		t.Fatal("a drive that never collected allocated relocation state")
	}
}

// Collections allocate nothing once the workers, their buffers and the
// scratch slices exist: 200 of them, every one handing runs to the
// workers, leave MemStats.Mallocs where it was. The warm-up is 1 000
// collections: a wait queue first grows between the 550th and the
// 600th.
func TestCollectionsDoNotAllocate(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, runFlash(e), Config{OverProvision: 0.25})
	n := int(f.ExportedPages())
	rng := rand.New(rand.NewSource(5))
	page := []byte{1}
	var mallocs, relocs uint64
	e.Go("t", func(p *sim.Proc) {
		churn := func(until uint64) {
			for f.cGCRuns.Value() < until {
				if err := f.WritePage(p, LBA(rng.Intn(n)), page); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
		}
		for i := 0; i < n; i++ {
			if err := f.WritePage(p, LBA(i), page); err != nil {
				t.Fatalf("fill: %v", err)
			}
		}
		// Every block has been through the pool, the maps are at size,
		// and every lock's wait queue has been as long as it gets.
		churn(1000)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r0 := f.cGCReloc.Value()
		churn(1200)
		runtime.ReadMemStats(&m1)
		mallocs, relocs = m1.Mallocs-m0.Mallocs, f.cGCReloc.Value()-r0
	})
	e.Run()
	if relocs < 200*relocRunPages {
		t.Fatalf("only %d pages relocated over 200 collections; the victims did not need the workers", relocs)
	}
	if mallocs > 0 {
		t.Fatalf("%d allocations over 200 collections (%d pages relocated), want none", mallocs, relocs)
	}
}

// fullBlocks writes one block's worth of pages to every die of the
// small test array and returns die 0's block: full, every page valid,
// LBAs 0, 4, 8, ... in page order.
func fullBlocks(t *testing.T, p *sim.Proc, f *FTL) nand.BlockID {
	t.Helper()
	fc := f.flash.Config()
	for i := 0; i < fc.Dies()*fc.PagesPerBlock; i++ {
		if err := f.WritePage(p, LBA(i), []byte{byte(i + 1)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	return f.open[0].blk
}

// A relocation slot is judged by the die its open block lives on. Slot
// 0's block sits on a die that an erase holds; relocation must pass
// over it to an idle slot instead of queueing behind the erase, and
// that slot opens its block on a die that is idle and has no victim
// waiting for its erase.
func TestRelocationPicksSlotsByPhysicalDie(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	dieOf := func(b nand.BlockID) int { return int(b) / fc.BlocksPerDie }
	e.Go("t", func(p *sim.Proc) {
		fullBlocks(t, p, f)
		victim := f.open[2].blk // LBAs 2, 6, 10, ...
		ppa, _ := f.lookup(0)
		f.housekeeping() // the relocation frontier, if no collection made it
		// Opens slot 0's block.
		if err := f.land(p, []nand.PPA{ppa}); err != nil {
			t.Fatal(err)
		}
		busy := dieOf(f.relocOpen[0].blk)
		var spare nand.BlockID
		for _, b := range f.free {
			if dieOf(b) == busy {
				spare = b
				break
			}
		}
		e.Go("erase", func(q *sim.Proc) { f.flash.EraseBlock(q, spare) }) // busy for 2 ms
		// A victim waits on the eraser of the next die, so that die is
		// no place for a new relocation block either.
		erasing := (busy + 1) % fc.Dies()
		f.erasers[erasing].queue = append(f.erasers[erasing].queue, nand.BlockID(erasing*fc.BlocksPerDie+fc.BlocksPerDie-1))
		p.Sleep(sim.Microsecond)
		t0 := e.Now()
		f.relocSlot = 0
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim)
		f.gcLock.Release()
		if err != nil {
			t.Fatal(err)
		}
		f.erasers[erasing].queue = f.erasers[erasing].queue[:0]
		if took := sim.Duration(e.Now() - t0); took > fc.EraseLatency/2 {
			t.Errorf("relocation took %v: it queued behind the erase on die %d", took, busy)
		}
		if d := dieOf(f.relocOpen[1].blk); d == busy || d == erasing {
			t.Errorf("slot 1 opened its block on die %d (busy %d, erasing %d)", d, busy, erasing)
		}
		for i := 2; i < fc.Dies()*fc.PagesPerBlock; i += fc.Dies() {
			if ppa, _ := f.lookup(LBA(i)); dieOf(fc.BlockOf(ppa)) == busy {
				t.Errorf("lba %d landed on the busy die", i)
			}
		}
		if err := f.Audit(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// A relocation's bytes move at the rebind, never at the program. With
// an injector installed (no faults planned) the program run steps page
// by page, tPROG apart; a host read issued while it is part-way through
// finds the LBA still mapped to its source and must get the acked
// bytes, not the zeroes of a source whose bytes already left.
func TestBytesMoveAtRebindNotAtProgram(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{})
	f := newTestFTL(e)
	fc := f.flash.Config()
	const lba = 4 // page 1 of die 0's block
	var midRun bool
	e.Go("t", func(p *sim.Proc) {
		victim := fullBlocks(t, p, f)
		e.Go("reader", func(q *sim.Proc) {
			// Past the read run and the run's transfer, two and a half
			// pages into its program: the copy of page 1 has programmed.
			q.Sleep(sim.Duration(fc.PagesPerBlock)*(fc.ReadLatency+2*fc.TransferTime(fc.PageSize)) + 5*fc.ProgramLatency/2)
			ob := f.relocOpen[0]
			midRun = ob.nextPage >= 0 && f.flash.NextPage(ob.blk) == 2
			if src, _ := f.lookup(lba); fc.BlockOf(src) != victim {
				t.Errorf("lba %d was rebound before the run finished programming", lba)
			}
			got := make([]byte, fc.PageSize)
			if err := f.ReadPageInto(q, lba, got); err != nil || got[0] != lba+1 {
				t.Errorf("read mid-program: %d, %v; want %d", got[0], err, lba+1)
			}
		})
		f.housekeeping() // the relocation frontier, if no collection made it
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim)
		f.gcLock.Release()
		if err != nil {
			t.Fatalf("evacuate: %v", err)
		}
		got := make([]byte, fc.PageSize)
		for i := 0; i < fc.Dies()*fc.PagesPerBlock; i++ {
			if err := f.ReadPageInto(p, LBA(i), got); err != nil || got[0] != byte(i+1) {
				t.Errorf("lba %d reads %d, %v", i, got[0], err)
			}
		}
	})
	e.Run()
	if !midRun {
		t.Fatal("the read did not land while the run was part-way through its program")
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}
