package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// A multi-page move's fan-out state is pooled, so the error one BA_PIN
// hit must not reach the next pin that reuses it.
func TestPooledMoveForgetsItsError(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.Device().WritePages(p, 40, bytes.Repeat([]byte{0x5C}, 8*ps)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.Device().Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		ppa, ok := s.Device().FTL().PPAOf(42)
		if !ok || !s.Device().Flash().CorruptPage(ppa, 1) {
			t.Fatal("could not corrupt lba 42")
		}
		if err := s.BAPin(p, 0, 0, 40, 4); !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Fatalf("pin over a corrupt page: err = %v, want ErrPageCorrupt", err)
		}
		if err := s.BAPin(p, 0, 0, 44, 4); err != nil {
			t.Fatalf("clean pin after a failed one: %v", err)
		}
		if got := readBuf(t, p, s, 0, 4*ps); !bytes.Equal(got, bytes.Repeat([]byte{0x5C}, 4*ps)) {
			t.Fatal("clean pin did not load its pages")
		}
		if err := s.BAFlush(p, 0); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	e.Run()
	if len(s.moveJobs) != 1 {
		t.Fatalf("%d pooled move jobs after sequential moves, want 1", len(s.moveJobs))
	}
	if j := s.moveJobs[0]; j.ent != (Entry{}) || j.firstErr != nil {
		t.Fatal("a pooled move job kept its entry or error")
	}
}

// In steady state a multi-page BA_FLUSH allocates nothing: the fan-out's
// workers, closures and WaitGroup are reused.
func TestMultiPageFlushDoesNotAllocate(t *testing.T) {
	const calls = 200
	e := sim.NewEnv()
	s := newSSD(e)
	var mallocs uint64
	e.Go("t", func(p *sim.Proc) {
		pinFlush := func(measure bool) {
			if err := s.BAPin(p, 0, 0, 8, 4); err != nil {
				t.Fatalf("pin: %v", err)
			}
			var m0, m1 runtime.MemStats
			if measure {
				runtime.ReadMemStats(&m0)
			}
			if err := s.BAFlush(p, 0); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if measure {
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
			}
		}
		// Warm the job and proc pools, and cycle the FTL through every
		// block once: the flash allocates a block's page table at its
		// first program, which is not the fan-out's cost.
		nc := s.cfg.Base.Nand
		for i := 0; i < nc.Dies()*nc.BlocksPerDie*nc.PagesPerBlock/4; i++ {
			pinFlush(false)
		}
		runtime.GC() // start the collector's own workers outside the window
		for i := 0; i < calls; i++ {
			pinFlush(true)
		}
	})
	e.Run()
	// The Go runtime allocates a few objects of its own now and then
	// (the collector's workers, per-P caches) whatever the simulator
	// does; a fan-out that allocated would add hundreds.
	if mallocs > 8 {
		t.Fatalf("%d allocations over %d 4-page BA_FLUSHes, want none", mallocs, calls)
	}
}
