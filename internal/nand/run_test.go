package nand

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

// readRun builds a read run over the given pages.
func readRun(ppas ...PPA) []RunPage {
	pages := make([]RunPage, len(ppas))
	for i, ppa := range ppas {
		pages[i].PPA = ppa
	}
	return pages
}

// peekTag is a page's out-of-band tag and whether the page holds bytes.
func peekTag(f *Flash, ppa PPA) (uint32, bool) {
	if pg := f.stored(ppa); pg != nil {
		return pg.tag, true
	}
	return 0, false
}

// A run occupies die and channel exactly as long as that many
// single-page operations, counts every page — and costs two kernel
// events, not two per page. Its pages hold no bytes until Move hands
// each its source's bytes and tag.
func TestRunOccupancyCountersAndTags(t *testing.T) {
	const n = 5
	c := testConfig()
	e := sim.NewEnv()
	f := New(e, c)
	src, base := c.PPAOf(0, 2, 0), c.PPAOf(1, 2, 0)
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 100) }
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := f.ProgramPageTagged(p, src+PPA(i), fill(i), uint32(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		t0, ev0 := e.Now(), e.Events()
		done, err := f.ProgramRun(p, base, n)
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
		for i := 0; i < n; i++ {
			if _, held := peekTag(f, base+PPA(i)); held || f.CorruptPage(base+PPA(i), 1) {
				t.Fatalf("copy-back target %d holds a tag or bytes before its move", i)
			}
			f.Move(src+PPA(i), base+PPA(i))
		}
		// Read back pages 4, 0, 2: any order, gaps allowed.
		pages := readRun(base+4, base, base+2)
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
		for i := range pages {
			if pages[i].Err != nil {
				t.Errorf("page %d: err %v", pages[i].PPA, pages[i].Err)
			}
		}
		for i := 0; i < n; i++ {
			if got, want := f.PeekPage(base+PPA(i)), fill(i); !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0 {
				t.Errorf("page %d: wrong bytes after the move", i)
			}
			if tag, _ := peekTag(f, base+PPA(i)); tag != uint32(i+1) {
				t.Errorf("page %d: tag %d after the move", i, tag)
			}
			if _, held := peekTag(f, src+PPA(i)); held || f.CorruptPage(src+PPA(i), 1) {
				t.Errorf("source %d kept its tag or bytes after the move", i)
			}
		}
	})
	e.Run()
	for _, s := range []struct {
		name string
		want uint64
	}{
		{"nand.page_programs", 2 * n}, {"nand.bytes_written", uint64(2 * n * c.PageSize)},
		{"nand.page_reads", 3}, {"nand.bytes_read", uint64(3 * c.PageSize)},
	} {
		if got := counter(t, e, s.name); got != s.want {
			t.Errorf("%s = %d, want %d", s.name, got, s.want)
		}
	}
	if busy := f.dies[1].Busy(); busy != n*c.ProgramLatency+3*c.ReadLatency {
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
		if _, err := f.ProgramRun(p, base+1, 2); !errors.Is(err, ErrNotErased) {
			t.Errorf("out-of-order run: %v", err)
		}
		if _, err := f.ProgramRun(p, base, c.PagesPerBlock+1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("run past the block: %v", err)
		}
		if err := f.ReadRun(p, readRun(base, c.PPAOf(0, 2, 0)), false); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read run over two blocks: %v", err)
		}
		f.MarkBad(c.BlockOf(base))
		if _, err := f.ProgramRun(p, base, 1); !errors.Is(err, ErrBadBlock) {
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
		done, err := f.ProgramRun(p, base, n)
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
			done, err := f2.ProgramRun(p, b, n)
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
				if _, stamped := f2.progAt[b+PPA(i)]; stamped != (i < done) {
					t.Fatalf("page %d of a run that failed at %d: program stamp %v", i, done, stamped)
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
// left to age beyond the ECC budget comes back ErrUncorrectable — its
// tag taken all the same — its neighbours in the same run read clean,
// and a salvage run reads all of them raw.
func TestReadRunPerPageVerdicts(t *testing.T) {
	c := testConfig()
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-4, RetentionPerHour: 100, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	f := New(e, c)
	base := c.PPAOf(3, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPageTagged(p, base, []byte{1}, 1); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3600 * sim.Second) // page 0 ages an hour: ~330 raw bit errors
		for i := 1; i < 3; i++ {
			if err := f.ProgramPageTagged(p, base+PPA(i), []byte{byte(i + 1)}, uint32(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		pages := readRun(base, base+1, base+2)
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
		t0 = e.Now()
		if err := f.ReadRun(p, pages, true); err != nil || pages[0].Err != nil {
			t.Fatalf("salvage run: %v, page 0 err %v", err, pages[0].Err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize)); got != want {
			t.Errorf("salvage run took %v, want %v", got, want)
		}
	})
	e.Run()
}
