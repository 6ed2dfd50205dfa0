package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twobssd/internal/nand"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// counter reads a registry series by name and fails the test when no
// component registered it: Registry.Counter would create the name and
// read 0, so a misspelled name would pass an "== 0" check vacuously.
func counter(t testing.TB, e *sim.Env, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

func testFlash(e *sim.Env) *nand.Flash {
	return nand.New(e, nand.Config{
		Channels:       2,
		DiesPerChannel: 2,
		BlocksPerDie:   16,
		PagesPerBlock:  8,
		PageSize:       4096,
		ReadLatency:    3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelMBps:    1200,
	})
}

func newTestFTL(e *sim.Env) *FTL {
	return New(e, testFlash(e), Config{OverProvision: 0.25})
}

func TestExportedCapacity(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	if f.ExportedPages() == 0 {
		t.Fatal("no exported pages")
	}
	total := uint64(64 * 8) // blocks * pages
	if f.ExportedPages() >= total {
		t.Fatalf("exported %d >= raw %d; over-provisioning missing", f.ExportedPages(), total)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if err := f.WritePage(p, LBA(i), data); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		got := make([]byte, f.PageSize())
		for i := 0; i < 10; i++ {
			if err := f.ReadPageInto(p, LBA(i), got); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			if got[0] != byte(i+1) {
				t.Errorf("lba %d: got %d", i, got[0])
			}
		}
	})
	e.Run()
}

func TestUnmappedReadsZero(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		got, err := f.ReadPage(p, 5)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if e.Now() != start {
			t.Error("unmapped read should not touch flash (no time)")
		}
		for _, b := range got {
			if b != 0 {
				t.Error("unmapped read not zero")
				break
			}
		}
	})
	e.Run()
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		f.WritePage(p, 0, []byte{1})
		f.WritePage(p, 0, []byte{2})
		got := make([]byte, f.PageSize())
		f.ReadPageInto(p, 0, got)
		if got[0] != 2 {
			t.Errorf("got %d, want 2", got[0])
		}
	})
	e.Run()
	if host, prog := counter(t, e, "ftl.host_page_writes"), counter(t, e, "ftl.nand_page_writes"); host != 2 || prog != 2 {
		t.Fatalf("%d host writes, %d NAND writes; want 2 each", host, prog)
	}
}

func TestLBARangeEnforced(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		bad := LBA(f.ExportedPages())
		if err := f.WritePage(p, bad, nil); !errors.Is(err, ErrLBAOutOfRange) {
			t.Errorf("write: %v", err)
		}
		if err := f.ReadPageInto(p, bad, make([]byte, f.PageSize())); !errors.Is(err, ErrLBAOutOfRange) {
			t.Errorf("read: %v", err)
		}
		if err := f.Trim(bad); !errors.Is(err, ErrLBAOutOfRange) {
			t.Errorf("trim: %v", err)
		}
	})
	e.Run()
}

func TestTrim(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		f.WritePage(p, 3, []byte{9})
		if !f.Mapped(3) {
			t.Error("not mapped after write")
		}
		if err := f.Trim(3); err != nil {
			t.Errorf("trim: %v", err)
		}
		if f.Mapped(3) {
			t.Error("still mapped after trim")
		}
		got := bytes.Repeat([]byte{0xFF}, f.PageSize())
		f.ReadPageInto(p, 3, got)
		if got[0] != 0 {
			t.Error("trimmed page should read zero")
		}
	})
	e.Run()
}

// Fill the device past its raw capacity with overwrites so GC must run,
// then verify all live data survives relocation.
func TestGCPreservesData(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	n := int(f.ExportedPages())
	rng := rand.New(rand.NewSource(7))
	last := make([]int, n)
	e.Go("t", func(p *sim.Proc) {
		// Fill once, then random overwrites (mixed-validity blocks force
		// GC to relocate live pages).
		for i := 0; i < n; i++ {
			if err := f.WritePage(p, LBA(i), []byte(fmt.Sprintf("v0-lba%d", i))); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		for op := 1; op <= 4*n; op++ {
			i := rng.Intn(n)
			last[i] = op
			if err := f.WritePage(p, LBA(i), []byte(fmt.Sprintf("v%d-lba%d", op, i))); err != nil {
				t.Fatalf("overwrite op %d: %v", op, err)
			}
		}
		got := make([]byte, f.PageSize())
		for i := 0; i < n; i++ {
			if err := f.ReadPageInto(p, LBA(i), got); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			want := fmt.Sprintf("v%d-lba%d", last[i], i)
			if !bytes.HasPrefix(got, []byte(want)) {
				t.Fatalf("lba %d corrupted after GC: %q", i, got[:24])
			}
		}
	})
	e.Run()
	if counter(t, e, "ftl.gc_runs") == 0 {
		t.Fatal("expected GC to run")
	}
	if counter(t, e, "ftl.nand_page_writes") <= counter(t, e, "ftl.host_page_writes") {
		t.Fatal("GC should amplify writes")
	}
}

func TestWAFOneForSequentialFill(t *testing.T) {
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
	host, prog := counter(t, e, "ftl.host_page_writes"), counter(t, e, "ftl.nand_page_writes")
	if host != f.ExportedPages() || prog != host {
		t.Fatalf("sequential fill of %d pages: %d host writes, %d NAND writes; want WAF 1", f.ExportedPages(), host, prog)
	}
}

func TestReservedBlocksShrinkCapacity(t *testing.T) {
	e := sim.NewEnv()
	fl := testFlash(e)
	withRes := New(e, fl, Config{OverProvision: 0.25, ReservedPerDie: 2})
	e2 := sim.NewEnv()
	fl2 := testFlash(e2)
	noRes := New(e2, fl2, Config{OverProvision: 0.25})
	if withRes.ExportedPages() >= noRes.ExportedPages() {
		t.Fatalf("reserved blocks did not shrink capacity: %d vs %d",
			withRes.ExportedPages(), noRes.ExportedPages())
	}
}

func TestRandomOverwritesModelConsistency(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	rng := rand.New(rand.NewSource(42))
	n := int(f.ExportedPages())
	shadow := make(map[LBA]byte)
	e.Go("t", func(p *sim.Proc) {
		for op := 0; op < 3*n; op++ {
			lba := LBA(rng.Intn(n))
			v := byte(rng.Intn(255) + 1)
			if err := f.WritePage(p, lba, []byte{v}); err != nil {
				t.Fatalf("write: %v", err)
			}
			shadow[lba] = v
		}
		got := make([]byte, f.PageSize())
		for lba, v := range shadow {
			if err := f.ReadPageInto(p, lba, got); err != nil {
				t.Fatalf("read: %v", err)
			}
			if got[0] != v {
				t.Fatalf("lba %d: got %d want %d", lba, got[0], v)
			}
		}
	})
	e.Run()
}

// Property: after any sequence of writes/overwrites within capacity,
// every written LBA reads back its last value (FTL is a map).
func TestPropertyLastWriteWins(t *testing.T) {
	prop := func(ops []uint16) bool {
		e := sim.NewEnv()
		f := newTestFTL(e)
		n := int(f.ExportedPages())
		shadow := make(map[LBA]byte)
		ok := true
		e.Go("t", func(p *sim.Proc) {
			for i, raw := range ops {
				lba := LBA(int(raw) % n)
				v := byte(i + 1)
				if err := f.WritePage(p, lba, []byte{v}); err != nil {
					ok = false
					return
				}
				shadow[lba] = v
			}
			got := make([]byte, f.PageSize())
			for lba, v := range shadow {
				if err := f.ReadPageInto(p, lba, got); err != nil || got[0] != v {
					ok = false
					return
				}
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWearStatsTrackErases(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	if w := f.Wear(); w.TotalErase != 0 || w.MaxErase != 0 {
		t.Fatalf("fresh wear = %+v", w)
	}
	n := int(f.ExportedPages())
	rng := rand.New(rand.NewSource(3))
	e.Go("t", func(p *sim.Proc) {
		for op := 0; op < 6*n; op++ {
			if err := f.WritePage(p, LBA(rng.Intn(n)), []byte{1}); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	})
	e.Run()
	w := f.Wear()
	if w.TotalErase == 0 {
		t.Fatal("no erases counted despite GC churn")
	}
	if w.MaxErase < w.MinErase {
		t.Fatalf("wear = %+v", w)
	}
	if w.RetiredBlocks != 0 {
		t.Fatalf("unexpected retirements: %+v", w)
	}
}

func TestWornBlocksRetireAndDeviceKeepsWorking(t *testing.T) {
	e := sim.NewEnv()
	fl := nand.New(e, nand.Config{
		Channels: 2, DiesPerChannel: 2, BlocksPerDie: 16, PagesPerBlock: 8,
		PageSize: 4096, ReadLatency: 3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond, EraseLatency: 2 * sim.Millisecond,
		ChannelMBps: 1200, EnduranceCycles: 6,
	})
	f := New(e, fl, Config{OverProvision: 0.3})
	n := int(f.ExportedPages())
	rng := rand.New(rand.NewSource(4))
	e.Go("t", func(p *sim.Proc) {
		// Churn hard enough to retire some blocks; writes must still
		// succeed and read back correctly while spares remain.
		for op := 0; op < 10*n; op++ {
			lba := LBA(rng.Intn(n / 2))
			if err := f.WritePage(p, lba, []byte{byte(op)}); err != nil {
				t.Logf("write stopped at op %d: %v", op, err)
				return
			}
		}
	})
	e.Run()
	w := f.Wear()
	if w.RetiredBlocks == 0 {
		t.Fatal("endurance=6 with heavy churn should retire blocks")
	}
	// Live data still correct.
	e.Go("verify", func(p *sim.Proc) {
		got := make([]byte, f.PageSize())
		for i := 0; i < n/2; i++ {
			if err := f.ReadPageInto(p, LBA(i), got); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
	})
	e.Run()
}

// A relocation (GC, retirement, scrub) copies a page across two yields
// — the read and the program. A host write of the same LBA that lands
// in between must win: the relocation may only rebind a mapping that is
// still the one it read. Four writers keep the drive in steady GC; each
// owns a disjoint LBA set and stamps every page with a per-LBA version,
// so the last acknowledged version of every LBA is unambiguous.
func TestRelocationNeverRevertsAcknowledgedWrite(t *testing.T) {
	const writers = 4
	e := sim.NewEnv()
	f := newTestFTL(e)
	n := int(f.ExportedPages())
	stamp := func(lba, ver int) []byte { return []byte(fmt.Sprintf("lba%04d-v%06d|", lba, ver)) }
	acked := make([]int, n) // last version whose WritePage returned
	check := func(p *sim.Proc, lba int, when string) {
		got := make([]byte, f.PageSize())
		if err := f.ReadPageInto(p, LBA(lba), got); err != nil {
			t.Fatalf("%s: read %d: %v", when, lba, err)
		}
		if want := stamp(lba, acked[lba]); !bytes.HasPrefix(got, want) {
			t.Fatalf("%s: lba %d reads %q, last acknowledged write was %q", when, lba, got[:len(want)], want)
		}
	}
	e.Go("fill", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := f.WritePage(p, LBA(i), stamp(i, 0)); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		for w := 0; w < writers; w++ {
			w := w
			e.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(11 + w)))
				for op := 0; op < 6*n; op++ {
					lba := rng.Intn(n/writers)*writers + w // this writer's LBAs only
					if err := f.WritePage(p, LBA(lba), stamp(lba, acked[lba]+1)); err != nil {
						t.Fatalf("writer %d op %d: %v", w, op, err)
					}
					acked[lba]++
					if op%8 == 0 {
						check(p, rng.Intn(n/writers)*writers+w, "mid-run")
					}
				}
			})
		}
	})
	e.Run()
	if counter(t, e, "ftl.gc_relocations") == 0 {
		t.Fatal("workload never relocated a page; the test exercises nothing")
	}
	e.Go("verify", func(p *sim.Proc) {
		for i := 0; i < n/writers*writers; i++ {
			check(p, i, "end of run")
		}
	})
	e.Run()
}
