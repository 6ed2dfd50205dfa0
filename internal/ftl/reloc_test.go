package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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

// checkMaps verifies the mapping invariants relocation must preserve:
// l2p and p2l are each other's inverse (so no physical page backs two
// LBAs) and validCount is what a recount of p2l gives.
func checkMaps(t *testing.T, f *FTL) {
	t.Helper()
	fc := f.flash.Config()
	count := make([]int, fc.Blocks())
	mapped, owned := 0, 0
	for i := uint64(0); i < f.ExportedPages(); i++ {
		lba := LBA(i)
		ppa, ok := f.lookup(lba)
		if !ok {
			continue
		}
		if back, ok := f.owner(ppa); !ok || back != lba {
			t.Fatalf("l2p[%d] = %d but p2l[%d] = %d (%v)", lba, ppa, ppa, back, ok)
		}
		mapped++
		count[fc.BlockOf(ppa)]++
	}
	for _, piece := range f.p2l {
		for _, v := range piece {
			if v != 0 {
				owned++
			}
		}
	}
	if mapped != owned {
		t.Fatalf("l2p has %d entries, p2l %d: a page is double-mapped or orphaned", mapped, owned)
	}
	for b, n := range count {
		if f.validCount[b] != n {
			t.Fatalf("block %d: validCount %d, recount %d", b, f.validCount[b], n)
		}
	}
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
func TestRelocationRunsNeverRevertHostWrite(t *testing.T) {
	const writers = 4
	const classes = writers + 1 // the last class is the trimmer's
	e := sim.NewEnv()
	f := New(e, runFlash(e), Config{OverProvision: 0.25})
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
	checkMaps(t, f)
	e.Go("verify", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			check(p, i, "end of run")
		}
	})
	e.Run()
}

// The path kv-block lives on: a victim with no valid page is reclaimed
// exactly as before relocation went parallel — same virtual time, same
// kernel events (measured at the parent commit), no worker started, no
// signal fired.
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
	if runs, relocs := counter(t, e, "ftl.gc_runs"), counter(t, e, "ftl.gc_relocations"); runs != 135 || relocs != 0 {
		t.Fatalf("gc runs %d, relocations %d; want 135 zero-valid victims", runs, relocs)
	}
	if e.Now() != 352042368 || e.Events() != 3208 {
		t.Fatalf("virtual time %d, events %d; want 352042368, 3208", e.Now(), e.Events())
	}
	if f.relocQ != nil || f.evacSrc != nil {
		t.Fatal("reclaiming empty victims started the relocation machinery")
	}
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
// workers, leave MemStats.Mallocs where it was.
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
		churn(300) // every block has been through the pool, maps are at size
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r0 := f.cGCReloc.Value()
		churn(500)
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

// A program failure at page k of a run: pages before k are rebound to
// the block that then failed, that block is retired — which moves them
// again — and the rest of the run lands elsewhere. Every LBA keeps its
// data, nothing stays mapped into the bad block.
func TestRunProgramFailureMidRun(t *testing.T) {
	for seed := uint64(1); seed < 400; seed++ {
		e := sim.NewEnv()
		fault.Install(e, fault.Plan{Seed: seed, ProgramFailOneIn: 24})
		f := newTestFTL(e)
		fc := f.flash.Config()
		tried := false
		e.Go("t", func(p *sim.Proc) {
			victim := fullBlocks(t, p, f)
			if counter(t, e, "fault.program_fails") != 0 {
				return // this seed fails a host write first; try the next
			}
			if f.validCount[victim] != fc.PagesPerBlock {
				t.Fatalf("seed %d: victim holds %d valid pages", seed, f.validCount[victim])
			}
			f.gcLock.Acquire(p)
			err := f.evacuate(p, victim, false, f.cGCReloc, false)
			f.gcLock.Release()
			if err != nil {
				t.Fatalf("seed %d: evacuate: %v", seed, err)
			}
			k := int(f.cRetireReloc.Value())
			if counter(t, e, "fault.program_fails") != 1 || k == 0 {
				return // no failure, or at the run's first page: nothing rebound before it
			}
			tried = true
			if got := f.cGCReloc.Value(); got != uint64(fc.PagesPerBlock) {
				t.Errorf("seed %d: %d pages relocated, want %d", seed, got, fc.PagesPerBlock)
			}
			if f.cRetired.Value() != 1 || f.Wear().RetiredBlocks != 1 {
				t.Errorf("seed %d: %d blocks retired, want the failed destination", seed, f.cRetired.Value())
			}
			if f.validCount[victim] != 0 {
				t.Errorf("seed %d: victim still holds %d valid pages", seed, f.validCount[victim])
			}
			got := make([]byte, fc.PageSize)
			for i := 0; i < fc.Dies()*fc.PagesPerBlock; i++ {
				ppa, _ := f.PPAOf(LBA(i))
				if f.flash.IsBad(fc.BlockOf(ppa)) {
					t.Errorf("seed %d: lba %d still maps into the retired block", seed, i)
				}
				if err := f.ReadPageInto(p, LBA(i), got); err != nil || got[0] != byte(i+1) {
					t.Errorf("seed %d: lba %d reads %d, %v", seed, i, got[0], err)
				}
			}
			checkMaps(t, f)
			t.Logf("seed %d: program failed at page %d of the run", seed, k)
		})
		e.Run()
		if tried {
			return
		}
	}
	t.Fatal("no seed failed a program in the middle of the run; the test exercises nothing")
}

// An uncorrectable page inside a GC run is salvaged on its own: one raw
// re-read, the run's other pages untouched, the block not retired.
func TestRunUncorrectableReadSalvagesOnePage(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-4, RetentionPerHour: 100, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	f := newTestFTL(e)
	fc := f.flash.Config()
	e.Go("t", func(p *sim.Proc) {
		if err := f.WritePage(p, 0, []byte{1}); err != nil { // die 0, page 0
			t.Fatal(err)
		}
		p.Sleep(3600 * sim.Second) // ...which ages past the ECC budget
		for i := 1; i < fc.Dies()*fc.PagesPerBlock; i++ {
			if err := f.WritePage(p, LBA(i), []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		victim := f.open[0].blk
		reads := counter(t, e, "nand.page_reads")
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim, false, f.cGCReloc, false)
		f.gcLock.Release()
		if err != nil {
			t.Fatalf("evacuate: %v", err)
		}
		if got := counter(t, e, "fault.uncorrectable_reads"); got != 1 {
			t.Errorf("%d uncorrectable reads, want the aged page only", got)
		}
		if got := counter(t, e, "nand.page_reads") - reads; got != uint64(fc.PagesPerBlock)+1 {
			t.Errorf("%d page reads, want the run's %d plus one salvage", got, fc.PagesPerBlock)
		}
		if f.cRetired.Value() != 0 || f.validCount[victim] != 0 {
			t.Errorf("retired %d blocks, victim holds %d valid pages", f.cRetired.Value(), f.validCount[victim])
		}
		for i := 0; i < fc.Dies()*fc.PagesPerBlock; i += fc.Dies() {
			ppa, _ := f.lookup(LBA(i))
			if got := f.flash.PeekPage(ppa); got[0] != byte(i+1) {
				t.Errorf("lba %d moved as %d", i, got[0])
			}
		}
		checkMaps(t, f)
	})
	e.Run()
}

// dieLocks[d] guards slot d's open block, and popFree's fallback can
// put that block on another die than d. With die 1 out of free blocks
// slot 1 opens a block on die 0; while die 0 is busy, relocation must
// see slot 1 as busy too — by the die its block lives on — and move on
// to an idle die instead of queueing behind the erase.
func TestRelocationPicksSlotsByPhysicalDie(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	dieOf := func(b nand.BlockID) int { return int(b) / fc.BlocksPerDie }
	e.Go("t", func(p *sim.Proc) {
		fullBlocks(t, p, f)
		victim := f.open[2].blk // LBAs 2, 6, 10, ...
		// Die 1 runs out of free blocks; its slot has to open a new one.
		kept := f.free[:0]
		for _, b := range f.free {
			if dieOf(b) != 1 {
				kept = append(kept, b)
			}
		}
		f.free = kept
		ppa, _ := f.lookup(0)
		if err := f.relocLocked(p, ppa); err != nil { // die 0's page goes to slot 1
			t.Fatal(err)
		}
		if d := dieOf(f.open[1].blk); d != 0 {
			t.Fatalf("slot 1 opened a block on die %d, want the fallback on die 0", d)
		}
		spare := f.free[0]
		if dieOf(spare) != 0 {
			t.Fatalf("free[0] is on die %d", dieOf(spare))
		}
		e.Go("erase", func(q *sim.Proc) { f.flash.EraseBlock(q, spare) }) // die 0 busy for 2 ms
		p.Sleep(sim.Microsecond)
		t0 := e.Now()
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim, false, f.cGCReloc, false)
		f.gcLock.Release()
		if err != nil {
			t.Fatal(err)
		}
		// The cursor starts at slot 0 (die 0: busy), then slot 1 — idle
		// by its number, busy by where its block is.
		if took := sim.Duration(e.Now() - t0); took > fc.EraseLatency/2 {
			t.Errorf("relocation took %v: it queued behind the erase on die 0", took)
		}
		for i := 2; i < fc.Dies()*fc.PagesPerBlock; i += fc.Dies() {
			if ppa, _ := f.lookup(LBA(i)); dieOf(fc.BlockOf(ppa)) == 0 {
				t.Errorf("lba %d landed on the busy die", i)
			}
		}
		checkMaps(t, f)
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
	fault.Install(e, fault.Plan{Seed: 1})
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
			np := f.flash.NextPage(f.open[0].blk)
			midRun = f.open[0].blk != victim && np == 2
			if src, _ := f.lookup(lba); fc.BlockOf(src) != victim {
				t.Errorf("lba %d was rebound before the run finished programming", lba)
			}
			got := make([]byte, fc.PageSize)
			if err := f.ReadPageInto(q, lba, got); err != nil || got[0] != lba+1 {
				t.Errorf("read mid-program: %d, %v; want %d", got[0], err, lba+1)
			}
		})
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim, false, f.cGCReloc, false)
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
	checkMaps(t, f)
}
