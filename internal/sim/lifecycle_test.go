package sim

import (
	"runtime"
	"testing"
)

// Process lifecycle under the coroutine kernel. Faults and Shutdown are
// pinned next to the tests they extend (TestProcessPanicPropagates,
// TestShutdownRunsDefersAndReleasesMemory).

// A body that calls runtime.Goexit — t.Fatal inside e.Go — ends its
// coroutine: the Proc must not go back to the free pool, and Run must
// not return normally, so the Goexit reaches Run's caller (and t.Fatal
// there fails the test that called Run).
func TestGoexitInBodyUnwindsRunAndIsNotRecycled(t *testing.T) {
	e := NewEnv()
	var exited *Proc
	e.Go("exits", func(p *Proc) {
		exited = p
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	e.Go("bystander", func(p *Proc) { p.Sleep(Millisecond) })
	returned := false
	var panicked interface{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		e.Run()
		returned = true
	}()
	<-done
	if returned || panicked != nil {
		t.Fatalf("Run returned=%v panicked=%v, want the Goexit to unwind Run's caller", returned, panicked)
	}
	for _, p := range e.free {
		if p == exited {
			t.Fatal("a process that called runtime.Goexit was recycled into the free pool")
		}
	}
	if e.running {
		t.Fatal("env still marked running after the Goexit unwound Run")
	}
	e.Shutdown() // the bystander is still parked
}

// Env.Run called from inside another environment's process runs the
// inner simulation to completion, handoffs included, and the outer
// process carries on afterwards.
func TestRunNestedInsideProc(t *testing.T) {
	outer := NewEnv()
	var innerEnd, outerEnd Time
	var innerEvents uint64
	outer.Go("driver", func(p *Proc) {
		p.Sleep(5)
		inner := NewEnv()
		r := inner.NewResource("r", 1)
		for w := 0; w < 3; w++ {
			inner.Go("w", func(q *Proc) {
				for i := 0; i < 4; i++ {
					r.Use(q, 10)
				}
			})
		}
		inner.Run()
		innerEnd, innerEvents = inner.Now(), inner.Events()
		p.Sleep(7)
		outerEnd = outer.Now()
	})
	outer.Go("other", func(p *Proc) { p.Sleep(100) })
	outer.Run()
	if innerEnd != 120 {
		t.Errorf("inner clock ended at %d, want 120 (12 serialized 10ns holds)", innerEnd)
	}
	if innerEvents != 3+12+11 { // starts, sleeps, hand-offs to a queued waiter
		t.Errorf("inner events = %d, want 26", innerEvents)
	}
	if outerEnd != 12 || outer.Now() != 100 {
		t.Errorf("outer driver ended at %d, clock %d; want 12, 100", outerEnd, outer.Now())
	}
}

// A fresh process costs the coroutine iter.Pull builds; a recycled one
// costs nothing (TestSpawnReusesPooledProcs).
func TestFreshProcAllocations(t *testing.T) {
	const runs = 200
	e := NewEnv()
	defer e.Shutdown()
	never := e.NewSignal("never")
	park := func(p *Proc) { never.Wait(p) }
	// Room for every parked process up front, so the count is the
	// process's own.
	e.blocked = make([]*Proc, 0, 2*runs)
	never.waiters = make([]*Proc, 0, 2*runs)
	allocs := testing.AllocsPerRun(runs, func() {
		e.GoDaemon("fresh", park) // every earlier one is still parked
		e.Run()
	})
	if allocs > 14 {
		t.Fatalf("a fresh process costs %.1f allocs, want <= 14", allocs)
	}
	t.Logf("%.1f allocs per fresh process", allocs)
}
