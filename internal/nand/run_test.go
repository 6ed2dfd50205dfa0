package nand

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

// runPages builds n run pages with their own buffers; data[i] (if any)
// is copied in and tagged i+1.
func runPages(c Config, n int, fill func(i int) []byte) []RunPage {
	pages := make([]RunPage, n)
	for i := range pages {
		pages[i].Data = make([]byte, c.PageSize)
		if fill != nil {
			copy(pages[i].Data, fill(i))
			pages[i].Tag, pages[i].Tagged = uint32(i+1), true
		}
	}
	return pages
}

// A run occupies die and channel exactly as long as that many
// single-page operations, counts every page, carries every tag — and
// costs two kernel events, not two per page.
func TestRunOccupancyCountersAndTags(t *testing.T) {
	const n = 5
	c := testConfig()
	e := sim.NewEnv()
	f := New(e, c)
	base := c.PPAOf(1, 2, 0)
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 100) }
	e.Go("t", func(p *sim.Proc) {
		t0, ev0 := e.Now(), e.Events()
		done, err := f.ProgramRun(p, base, runPages(c, n, fill))
		if err != nil || done != n {
			t.Fatalf("ProgramRun = %d, %v", done, err)
		}
		if got, want := sim.Duration(e.Now()-t0), n*(c.TransferTime(c.PageSize)+c.ProgramLatency); got != want {
			t.Errorf("program run took %v, want %v", got, want)
		}
		if ev := e.Events() - ev0; ev != 2 {
			t.Errorf("program run cost %d events, want 2", ev)
		}
		if np := f.NextPage(c.BlockOf(base)); np != n {
			t.Errorf("next programmable page = %d, want %d", np, n)
		}
		// Read back pages 4, 0, 2: any order, gaps allowed.
		pages := runPages(c, 3, nil)
		for i, pg := range []int{4, 0, 2} {
			pages[i].PPA = base + PPA(pg)
		}
		t0, ev0 = e.Now(), e.Events()
		if err := f.ReadRun(p, pages, false); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize)); got != want {
			t.Errorf("read run took %v, want %v", got, want)
		}
		if ev := e.Events() - ev0; ev != 2 {
			t.Errorf("read run cost %d events, want 2", ev)
		}
		for i, pg := range []int{4, 0, 2} {
			if pages[i].Err != nil || !pages[i].Tagged || pages[i].Tag != uint32(pg+1) {
				t.Errorf("page %d: tag %d tagged %v err %v", pg, pages[i].Tag, pages[i].Tagged, pages[i].Err)
			}
			if want := fill(pg); !bytes.Equal(pages[i].Data[:len(want)], want) || pages[i].Data[len(want)] != 0 {
				t.Errorf("page %d: wrong bytes", pg)
			}
		}
	})
	e.Run()
	for _, s := range []struct {
		name string
		want uint64
	}{
		{"nand.page_programs", n}, {"nand.bytes_written", uint64(n * c.PageSize)},
		{"nand.page_reads", 3}, {"nand.bytes_read", uint64(3 * c.PageSize)},
	} {
		if got := counter(t, e, s.name); got != s.want {
			t.Errorf("%s = %d, want %d", s.name, got, s.want)
		}
	}
	if _, _, _, busy := f.dies[1].Stats(); busy != n*c.ProgramLatency+3*c.ReadLatency {
		t.Errorf("die busy %v", busy)
	}
}

// The run operations keep the single-page rules: one block, in program
// order, inside the block, not on a bad block.
func TestRunRules(t *testing.T) {
	c := testConfig()
	e := sim.NewEnv()
	f := New(e, c)
	base := c.PPAOf(0, 1, 0)
	e.Go("t", func(p *sim.Proc) {
		if _, err := f.ProgramRun(p, base+1, runPages(c, 2, nil)); !errors.Is(err, ErrNotErased) {
			t.Errorf("out-of-order run: %v", err)
		}
		if _, err := f.ProgramRun(p, base, runPages(c, c.PagesPerBlock+1, nil)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("run past the block: %v", err)
		}
		big := runPages(c, 1, nil)
		big[0].Data = make([]byte, c.PageSize+1)
		if _, err := f.ProgramRun(p, base, big); !errors.Is(err, ErrPageTooLarge) {
			t.Errorf("oversized page: %v", err)
		}
		two := runPages(c, 2, nil)
		two[0].PPA, two[1].PPA = base, c.PPAOf(0, 2, 0)
		if err := f.ReadRun(p, two, false); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read run over two blocks: %v", err)
		}
		f.MarkBad(c.BlockOf(base))
		if _, err := f.ProgramRun(p, base, runPages(c, 1, nil)); !errors.Is(err, ErrBadBlock) {
			t.Errorf("run on a bad block: %v", err)
		}
		if e.Now() != 0 {
			t.Errorf("rejected runs took time: %v", e.Now())
		}
	})
	e.Run()
}

// With an injector the program run steps page by page inside its die
// hold: every page ticks EvNandProgram at its own instant (a trigger
// on the k-th program trips tPROG after the (k-1)-th), the total time
// is unchanged, and a program failure at page k leaves pages < k
// programmed and the block's cursor at k.
func TestProgramRunStepsUnderInjector(t *testing.T) {
	const n = 6
	c := testConfig()
	e := sim.NewEnv()
	in := fault.Install(e, fault.Plan{Seed: 9, PowerLoss: fault.Trigger{On: fault.EvNandProgram, N: 4}})
	f := New(e, c)
	base := c.PPAOf(2, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		done, err := f.ProgramRun(p, base, runPages(c, n, func(i int) []byte { return []byte{byte(i + 1)} }))
		if err != nil || done != n {
			t.Fatalf("ProgramRun = %d, %v", done, err)
		}
		if got, want := sim.Duration(e.Now()), n*(c.TransferTime(c.PageSize)+c.ProgramLatency); got != want {
			t.Errorf("stepped run took %v, want %v", got, want)
		}
	})
	e.Run()
	if got := in.Count(fault.EvNandProgram); got != n {
		t.Fatalf("%d program ticks, want %d", got, n)
	}
	_, at := in.TripInfo()
	if want := sim.Time(n*c.TransferTime(c.PageSize) + 4*c.ProgramLatency); !in.Tripped() || at != want {
		t.Fatalf("trigger on the 4th program tripped at %d (tripped=%v), want %d", at, in.Tripped(), want)
	}
	for i := 0; i < n; i++ {
		if want := sim.Time(n*c.TransferTime(c.PageSize)) + sim.Time((i+1)*int(c.ProgramLatency)); f.progAt[base+PPA(i)] != want {
			t.Errorf("page %d stamped %d, want %d", i, f.progAt[base+PPA(i)], want)
		}
	}

	// One program in three fails: find the first run that stops early.
	e2 := sim.NewEnv()
	fault.Install(e2, fault.Plan{Seed: 9, ProgramFailOneIn: 3})
	f2 := New(e2, c)
	e2.Go("t", func(p *sim.Proc) {
		for blk := 0; blk < c.BlocksPerDie; blk++ {
			b := c.PPAOf(0, blk, 0)
			done, err := f2.ProgramRun(p, b, runPages(c, n, func(i int) []byte { return []byte{byte(i + 1)} }))
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrProgramFailed) || done >= n {
				t.Fatalf("ProgramRun = %d, %v", done, err)
			}
			if np := f2.NextPage(c.BlockOf(b)); np != done {
				t.Fatalf("failed at page %d but next programmable page is %d", done, np)
			}
			for i := 0; i < n; i++ {
				if got := f2.PeekPage(b + PPA(i))[0]; (i < done && got != byte(i+1)) || (i >= done && got != 0) {
					t.Fatalf("page %d of a run that failed at %d holds %d", i, done, got)
				}
			}
			if got := counter(t, e2, "nand.page_programs"); got != uint64(blk*n+done) {
				t.Fatalf("programs counted %d, want %d", got, blk*n+done)
			}
			return
		}
		t.Fatal("no run failed; the test exercises nothing")
	})
	e2.Run()
}

// With a BER model the read run gives each page its own verdict: a page
// left to age beyond the ECC budget comes back ErrUncorrectable, its
// neighbours in the same run read clean, and a salvage run reads all of
// them raw.
func TestReadRunPerPageVerdicts(t *testing.T) {
	c := testConfig()
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-4, RetentionPerHour: 100, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	f := New(e, c)
	base := c.PPAOf(3, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPage(p, base, []byte{1}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3600 * sim.Second) // page 0 ages an hour: ~330 raw bit errors
		if _, err := f.ProgramRun(p, base+1, runPages(c, 2, func(i int) []byte { return []byte{byte(i + 2)} })); err != nil {
			t.Fatal(err)
		}
		pages := runPages(c, 3, nil)
		for i := range pages {
			pages[i].PPA = base + PPA(i)
		}
		t0 := e.Now()
		if err := f.ReadRun(p, pages, false); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if !errors.Is(pages[0].Err, ErrUncorrectable) || pages[1].Err != nil || pages[2].Err != nil {
			t.Fatalf("verdicts: %v, %v, %v", pages[0].Err, pages[1].Err, pages[2].Err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize))+2*60*sim.Microsecond; got != want {
			t.Errorf("run with two retry steps took %v, want %v", got, want)
		}
		if pages[1].Data[0] != 2 || pages[2].Data[0] != 3 {
			t.Error("clean pages of the run lost their bytes")
		}
		t0 = e.Now()
		if err := f.ReadRun(p, pages, true); err != nil || pages[0].Err != nil || pages[0].Data[0] != 1 {
			t.Fatalf("salvage run: %v, page 0 err %v data %d", err, pages[0].Err, pages[0].Data[0])
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize)); got != want {
			t.Errorf("salvage run took %v, want %v", got, want)
		}
	})
	e.Run()
}
