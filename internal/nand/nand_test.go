package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

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

func testConfig() Config {
	return Config{
		Channels:       2,
		DiesPerChannel: 2,
		BlocksPerDie:   8,
		PagesPerBlock:  16,
		PageSize:       4096,
		ReadLatency:    3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond,
		EraseLatency:   3 * sim.Millisecond,
		ChannelMBps:    1200,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := testConfig(); c.Channels = 0; return c }(),
		func() Config { c := testConfig(); c.PageSize = -1; return c }(),
		func() Config { c := testConfig(); c.ChannelMBps = 0; return c }(),
		func() Config { c := testConfig(); c.ReadLatency = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGeometryMath(t *testing.T) {
	c := testConfig()
	if c.Dies() != 4 || c.Blocks() != 32 || c.Pages() != 512 {
		t.Fatalf("dies=%d blocks=%d pages=%d", c.Dies(), c.Blocks(), c.Pages())
	}
	if c.CapacityBytes() != 512*4096 {
		t.Fatalf("capacity = %d", c.CapacityBytes())
	}
}

func TestPPARoundTrip(t *testing.T) {
	c := testConfig()
	for die := 0; die < c.Dies(); die++ {
		for blk := 0; blk < c.BlocksPerDie; blk++ {
			for pg := 0; pg < c.PagesPerBlock; pg++ {
				ppa := c.PPAOf(die, blk, pg)
				d, b, g := c.Decompose(ppa)
				if d != die || b != blk || g != pg {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", die, blk, pg, ppa, d, b, g)
				}
			}
		}
	}
}

func TestTransferTime(t *testing.T) {
	c := testConfig() // 1200 MB/s = 1.2 bytes/ns
	if got := c.TransferTime(4096); got != sim.Duration(4096*1000/1200) {
		t.Fatalf("transfer = %v", got)
	}
	if c.TransferTime(0) != 0 || c.TransferTime(-1) != 0 {
		t.Fatal("non-positive sizes should transfer in zero time")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, payload); err != nil {
			t.Errorf("program: %v", err)
		}
		got, err := f.ReadPage(p, ppa)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("read back wrong data")
		}
	})
	e.Run()
	if pr, rd := counter(t, e, "nand.page_programs"), counter(t, e, "nand.page_reads"); pr != 1 || rd != 1 {
		t.Fatalf("%d programs, %d reads; want 1 each", pr, rd)
	}
}

func TestShortProgramZeroPadded(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, []byte{1, 2, 3}); err != nil {
			t.Errorf("program: %v", err)
		}
		got := make([]byte, 4096)
		f.ReadPageInto(p, ppa, got)
		if got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 || got[4095] != 0 {
			t.Error("short program not zero padded")
		}
	})
	e.Run()
}

func TestSequentialProgramRule(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		// Page 1 before page 0 must fail.
		if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, 1), nil); !errors.Is(err, ErrNotErased) {
			t.Errorf("out-of-order program: err = %v", err)
		}
		// In order works.
		for pg := 0; pg < 3; pg++ {
			if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, pg), nil); err != nil {
				t.Errorf("sequential program pg %d: %v", pg, err)
			}
		}
		// Rewriting page 0 without erase must fail.
		if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, 0), nil); !errors.Is(err, ErrNotErased) {
			t.Errorf("overwrite without erase: err = %v", err)
		}
	})
	e.Run()
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, []byte{9}); err != nil {
			t.Fatalf("program: %v", err)
		}
		if err := f.EraseBlock(p, f.Config().BlockOf(ppa)); err != nil {
			t.Fatalf("erase: %v", err)
		}
		got := make([]byte, 4096)
		f.ReadPageInto(p, ppa, got)
		if got[0] != 0 {
			t.Error("erase did not clear data")
		}
		if err := f.ProgramPage(p, ppa, []byte{7}); err != nil {
			t.Errorf("program after erase: %v", err)
		}
	})
	e.Run()
	if f.EraseCount(0) != 1 {
		t.Fatalf("erase count = %d", f.EraseCount(0))
	}
}

func TestEnduranceRetiresBlock(t *testing.T) {
	cfg := testConfig()
	cfg.EnduranceCycles = 2
	e := sim.NewEnv()
	f := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		if err := f.EraseBlock(p, 0); err != nil {
			t.Errorf("erase 1: %v", err)
		}
		if err := f.EraseBlock(p, 0); !errors.Is(err, ErrWornOut) {
			t.Errorf("erase 2: err = %v, want ErrWornOut", err)
		}
		if err := f.EraseBlock(p, 0); !errors.Is(err, ErrBadBlock) {
			t.Errorf("erase after retirement: err = %v, want ErrBadBlock", err)
		}
		if err := f.ProgramPage(p, 0, nil); !errors.Is(err, ErrBadBlock) {
			t.Errorf("program bad block: err = %v, want ErrBadBlock", err)
		}
	})
	e.Run()
	if !f.IsBad(0) {
		t.Fatal("block not marked bad")
	}
}

func TestOutOfRange(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		if _, _, err := f.ReadPageInto(p, PPA(f.Config().Pages()), make([]byte, 4096)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read: err = %v", err)
		}
		if err := f.ProgramPage(p, PPA(f.Config().Pages()), nil); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("program: err = %v", err)
		}
		if err := f.EraseBlock(p, BlockID(f.Config().Blocks())); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("erase: err = %v", err)
		}
	})
	e.Run()
}

func TestOversizedProgramRejected(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPage(p, 0, make([]byte, 4097)); !errors.Is(err, ErrPageTooLarge) {
			t.Errorf("err = %v", err)
		}
	})
	e.Run()
}

func TestReadTiming(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	var took sim.Duration
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		if _, _, err := f.ReadPageInto(p, 0, make([]byte, 4096)); err != nil {
			t.Errorf("read: %v", err)
		}
		took = sim.Duration(e.Now() - start)
	})
	e.Run()
	want := 3*sim.Microsecond + testConfig().TransferTime(4096)
	if took != want {
		t.Fatalf("read took %v, want %v", took, want)
	}
}

func TestDieParallelism(t *testing.T) {
	// Two reads on different dies of different channels overlap fully;
	// two reads on the same die serialize the array time.
	cfg := testConfig()
	e := sim.NewEnv()
	f := New(e, cfg)
	perRead := cfg.ReadLatency + cfg.TransferTime(cfg.PageSize)
	read := func(f *Flash, ppa PPA) func(*sim.Proc) {
		return func(p *sim.Proc) { f.ReadPageInto(p, ppa, make([]byte, cfg.PageSize)) }
	}
	// Different dies on different channels.
	e.Go("a", read(f, cfg.PPAOf(0, 0, 0)))
	e.Go("b", read(f, cfg.PPAOf(1, 0, 0)))
	e.Run()
	if sim.Duration(e.Now()) != perRead {
		t.Fatalf("parallel reads took %v, want %v", sim.Duration(e.Now()), perRead)
	}

	e2 := sim.NewEnv()
	f2 := New(e2, cfg)
	e2.Go("a", read(f2, cfg.PPAOf(0, 0, 0)))
	e2.Go("b", read(f2, cfg.PPAOf(0, 0, 1)))
	e2.Run()
	// Same die: second array read waits for the first; transfers share
	// a channel too, so total = 2*tR + 2*xfer serialized except overlap
	// of second tR with first transfer.
	min := perRead + cfg.ReadLatency
	if sim.Duration(e2.Now()) < min {
		t.Fatalf("same-die reads took %v, want >= %v", sim.Duration(e2.Now()), min)
	}
}

func TestMarkBadInjection(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	f.MarkBad(3)
	e.Go("t", func(p *sim.Proc) {
		ppa := PPA(uint64(3) * uint64(f.Config().PagesPerBlock))
		if err := f.ProgramPage(p, ppa, nil); !errors.Is(err, ErrBadBlock) {
			t.Errorf("err = %v, want ErrBadBlock", err)
		}
	})
	e.Run()
}

// A read takes its bytes and tag when it is issued: a Discard while it
// waits on the die leaves it the page as programmed, and only later
// reads see the zeroes. The discarded buffer backs the next program.
func TestReadTakesBytesAtIssue(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	ppa := f.Config().PPAOf(1, 0, 0)
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPageTagged(p, ppa, []byte{7, 7}, 42); err != nil {
			t.Fatal(err)
		}
		e.Go("discard", func(q *sim.Proc) {
			q.Sleep(sim.Microsecond) // inside the read's tR
			f.Discard(ppa)
		})
		got := make([]byte, f.Config().PageSize)
		tag, _, err := f.ReadPageInto(p, ppa, got)
		if err != nil || got[0] != 7 || got[1] != 7 || tag != 42 {
			t.Fatalf("read racing a discard = %v %d, %v", got[:2], tag, err)
		}
		if tag, _, _ := f.ReadPageInto(p, ppa, got); got[0] != 0 || tag != 0 {
			t.Errorf("a read issued after the discard found bytes or tag %d", tag)
		}
		if f.CorruptPage(ppa, 1) {
			t.Error("the discarded page kept its bytes")
		}
		if err := f.ProgramPage(p, ppa+1, []byte{9}); err != nil || len(f.spare) != 0 {
			t.Errorf("program after discard: %v, %d spare buffers left", err, len(f.spare))
		}
	})
	e.Run()
}

// Property: any program/read pair on a fresh block returns the data
// written, zero-padded to page size.
func TestPropertyProgramReadIdentity(t *testing.T) {
	cfg := testConfig()
	f := func(data []byte, blkSeed uint8) bool {
		if len(data) > cfg.PageSize {
			data = data[:cfg.PageSize]
		}
		e := sim.NewEnv()
		fl := New(e, cfg)
		blk := int(blkSeed) % cfg.BlocksPerDie
		ok := true
		e.Go("t", func(p *sim.Proc) {
			ppa := cfg.PPAOf(0, blk, 0)
			if err := fl.ProgramPage(p, ppa, data); err != nil {
				ok = false
				return
			}
			got := make([]byte, cfg.PageSize)
			if _, _, err := fl.ReadPageInto(p, ppa, got); err != nil {
				ok = false
				return
			}
			want := make([]byte, cfg.PageSize)
			copy(want, data)
			ok = bytes.Equal(got, want)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: PPA decomposition is a bijection over the whole array.
func TestPropertyPPABijection(t *testing.T) {
	cfg := testConfig()
	f := func(raw uint32) bool {
		ppa := PPA(uint64(raw) % uint64(cfg.Pages()))
		d, b, g := cfg.Decompose(ppa)
		return cfg.PPAOf(d, b, g) == ppa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
