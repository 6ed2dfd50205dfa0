package nand

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

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
		if err := f.ProgramRun(p, base, n); err != nil {
			t.Fatalf("ProgramRun: %v", err)
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
		t0, ev0 = e.Now(), e.Events()
		if err := f.ReadRun(p, []PPA{base + 4, base, base + 2}); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize)); got != want {
			t.Errorf("read run took %v, want %v", got, want)
		}
		if ev := e.Events() - ev0; ev != 2 {
			t.Errorf("read run cost %d events, want 2", ev)
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
// order, inside the block.
func TestRunRules(t *testing.T) {
	c := testConfig()
	e := sim.NewEnv()
	f := New(e, c)
	base := c.PPAOf(0, 1, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramRun(p, base+1, 2); !errors.Is(err, ErrNotErased) {
			t.Errorf("out-of-order run: %v", err)
		}
		if err := f.ProgramRun(p, base, c.PagesPerBlock+1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("run past the block: %v", err)
		}
		if err := f.ReadRun(p, []PPA{base, c.PPAOf(0, 2, 0)}); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read run over two blocks: %v", err)
		}
		if e.Now() != 0 {
			t.Errorf("rejected runs took time: %v", e.Now())
		}
	})
	e.Run()
}

// With an injector the program run steps page by page inside its die
// hold: every page ticks EvNandProgram at its own instant (a trigger
// on the k-th program trips tPROG after the (k-1)-th), and the total
// time is unchanged. A read run ticks nothing and stays one die hold.
func TestProgramRunStepsUnderInjector(t *testing.T) {
	const n = 6
	c := testConfig()
	e := sim.NewEnv()
	in := fault.Install(e, fault.Plan{PowerLoss: fault.Trigger{On: fault.EvNandProgram, N: 4}})
	f := New(e, c)
	base := c.PPAOf(2, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramRun(p, base, n); err != nil {
			t.Fatalf("ProgramRun: %v", err)
		}
		if got, want := sim.Duration(e.Now()), n*(c.TransferTime(c.PageSize)+c.ProgramLatency); got != want {
			t.Errorf("stepped run took %v, want %v", got, want)
		}
		t0, ev0 := e.Now(), e.Events()
		if err := f.ReadRun(p, []PPA{base, base + 1, base + 2}); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize)); got != want {
			t.Errorf("read run took %v, want %v", got, want)
		}
		if ev := e.Events() - ev0; ev != 2 {
			t.Errorf("read run under an injector cost %d events, want 2", ev)
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
}
