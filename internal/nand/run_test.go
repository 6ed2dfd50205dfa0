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
// on the k-th program trips tPROG after the (k-1)-th) and is stamped
// with it, and the total time is unchanged.
func TestProgramRunStepsUnderInjector(t *testing.T) {
	const n = 6
	c := testConfig()
	e := sim.NewEnv()
	in := fault.Install(e, fault.Plan{Seed: 9, PowerLoss: fault.Trigger{On: fault.EvNandProgram, N: 4}})
	f := New(e, c)
	base := c.PPAOf(2, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramRun(p, base, n); err != nil {
			t.Fatalf("ProgramRun: %v", err)
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
}

// With a BER model the read run gives each page its own verdict: a page
// left to age beyond the ECC budget spends every retry step and counts
// as uncorrectable, its neighbours in the same run read clean, and the
// run goes on — a copy-back moves the page as the array holds it.
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
		t0 := e.Now()
		if err := f.ReadRun(p, []PPA{base, base + 1, base + 2}); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if got, want := sim.Duration(e.Now()-t0), 3*(c.ReadLatency+c.TransferTime(c.PageSize))+2*60*sim.Microsecond; got != want {
			t.Errorf("run with two retry steps took %v, want %v", got, want)
		}
	})
	e.Run()
	if got := counter(t, e, "fault.uncorrectable_reads"); got != 1 {
		t.Errorf("%d uncorrectable verdicts, want the aged page's", got)
	}
	if got := counter(t, e, "fault.ecc_retries"); got != 2 {
		t.Errorf("%d retry steps, want the aged page's 2", got)
	}
}

// A page a copy-back read found uncorrectable stays lost in its copy:
// Move hands the mark on with the bytes, so the copy fails ECC although
// its own program instant is fresh, while the neighbours moved in the
// same run read back clean. An erase clears the mark with the page.
func TestLostMarkMovesWithThePage(t *testing.T) {
	c := testConfig()
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-4, RetentionPerHour: 100, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	f := New(e, c)
	base, dst := c.PPAOf(3, 0, 0), c.PPAOf(2, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPageTagged(p, base, []byte{1}, 1); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3600 * sim.Second) // page 0 ages past the ECC budget
		for i := 1; i < 3; i++ {
			if err := f.ProgramPageTagged(p, base+PPA(i), []byte{byte(i + 1)}, uint32(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.ReadRun(p, []PPA{base, base + 1, base + 2}); err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		if err := f.ProgramRun(p, dst, 3); err != nil {
			t.Fatalf("ProgramRun: %v", err)
		}
		for i := PPA(0); i < 3; i++ {
			f.Move(base+i, dst+i)
		}
		got := make([]byte, c.PageSize)
		if _, _, err := f.ReadPageInto(p, dst, got); !errors.Is(err, ErrUncorrectable) {
			t.Errorf("the aged page's copy reads %v, want ErrUncorrectable", err)
		}
		for i := PPA(1); i < 3; i++ {
			if tag, _, err := f.ReadPageInto(p, dst+i, got); err != nil || tag != uint32(i+1) || got[0] != byte(i+1) {
				t.Errorf("copy %d reads tag %d, byte %d, %v", i, tag, got[0], err)
			}
		}
		if err := f.EraseBlock(p, c.BlockOf(dst)); err != nil {
			t.Fatal(err)
		}
		if err := f.ProgramPageTagged(p, dst, []byte{9}, 9); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.ReadPageInto(p, dst, got); err != nil || got[0] != 9 {
			t.Errorf("a fresh program over the erased copy reads %d, %v", got[0], err)
		}
	})
	e.Run()
}
