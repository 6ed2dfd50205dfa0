package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	e := NewEnv()
	var at1, at2 Time
	e.Go("a", func(p *Proc) {
		p.Sleep(100)
		at1 = e.Now()
		p.Sleep(250)
		at2 = e.Now()
	})
	e.Run()
	if at1 != 100 || at2 != 350 {
		t.Fatalf("got %d,%d want 100,350", at1, at2)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		p.Sleep(-5)
		if e.Now() != 0 {
			t.Errorf("negative sleep moved clock to %d", e.Now())
		}
	})
	e.Run()
}

func TestFIFOAmongSimultaneousEvents(t *testing.T) {
	e := NewEnv()
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			p.Sleep(10)
			order = append(order, n)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestGoAtDelaysStart(t *testing.T) {
	e := NewEnv()
	var started Time
	e.GoAt(500, "late", func(p *Proc) { started = e.Now() })
	e.Run()
	if started != 500 {
		t.Fatalf("started at %d, want 500", started)
	}
}

func TestGoFromInsideProcess(t *testing.T) {
	e := NewEnv()
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(42)
		e.Go("child", func(c *Proc) {
			c.Sleep(8)
			childAt = e.Now()
		})
	})
	e.Run()
	if childAt != 50 {
		t.Fatalf("child finished at %d, want 50", childAt)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("mtx", 1)
	var maxConcurrent, cur int
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			cur++
			if cur > maxConcurrent {
				maxConcurrent = cur
			}
			p.Sleep(10)
			cur--
			r.Release()
		})
	}
	e.Run()
	if maxConcurrent != 1 {
		t.Fatalf("max concurrency = %d, want 1", maxConcurrent)
	}
	if e.Now() != 50 {
		t.Fatalf("serialized 5x10ns should end at 50, got %d", e.Now())
	}
}

func TestResourceCapacityN(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("pool", 3)
	e.Go("driver", func(p *Proc) {
		for i := 0; i < 6; i++ {
			e.Go("w", func(w *Proc) { r.Use(w, 100) })
		}
	})
	e.Run()
	// 6 jobs of 100ns on 3 servers => 200ns.
	if e.Now() != 200 {
		t.Fatalf("end = %d, want 200", e.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.GoAt(Time(i), "w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var got, gotWhileBusy bool
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	e.GoAt(50, "trier", func(p *Proc) {
		gotWhileBusy = r.TryAcquire()
		p.Sleep(100) // now t=150, resource free
		got = r.TryAcquire()
		if got {
			r.Release()
		}
	})
	e.Run()
	if gotWhileBusy {
		t.Error("TryAcquire succeeded while busy")
	}
	if !got {
		t.Error("TryAcquire failed while free")
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEnv()
	r := e.NewResource("r", 1)
	e.Go("bad", func(p *Proc) { r.Release() })
	e.Run()
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	e.GoAt(100, "firer", func(p *Proc) { s.Fire() })
	e.Run()
	if woke != 3 {
		t.Fatalf("woke %d, want 3", woke)
	}
	if s.Fires() != 1 {
		t.Fatalf("fires = %d, want 1", s.Fires())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv()
	wg := e.NewWaitGroup("wg")
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(Duration(i * 100))
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = e.Now()
	})
	e.Run()
	if doneAt != 300 {
		t.Fatalf("waiter resumed at %d, want 300", doneAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEnv()
	s := e.NewSignal("never")
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	e.Run()
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `sim: process "boom" faulted: kaput`) {
			t.Fatalf("panic %q does not name the faulting process", msg)
		}
	}()
	e := NewEnv()
	e.Go("fine", func(p *Proc) { p.Sleep(Microsecond) })
	e.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("kaput")
	})
	e.Run()
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Three holders of a capacity-1 resource queue FIFO: the second waits
// 100 and the third 200, and the resource is busy for all 300.
func TestResourceStats(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var took []Duration
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) { took = append(took, r.Use(p, 100)) })
	}
	e.Run()
	if len(took) != 3 || took[0] != 100 || took[1] != 200 || took[2] != 300 {
		t.Errorf("Use took %v, want [100 200 300]", took)
	}
	if busy := r.Busy(); busy != 300 {
		t.Errorf("Busy = %d, want 300", busy)
	}
}

// Property: for any set of jobs on a capacity-1 resource, the end time
// equals the sum of service times (perfect serialization), and FIFO
// waiting times are consistent.
func TestPropertySerializationTime(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		e := NewEnv()
		r := e.NewResource("r", 1)
		var sum Duration
		for _, d := range durs {
			d := Duration(d)
			sum += d
			e.Go("w", func(p *Proc) { r.Use(p, d) })
		}
		e.Run()
		return e.Now() == Time(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sleeps on independent processes never interfere — the final
// clock is the max individual finish time.
func TestPropertyIndependentSleeps(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		e := NewEnv()
		var max Duration
		for _, d := range durs {
			d := Duration(d)
			if d > max {
				max = d
			}
			e.Go("w", func(p *Proc) { p.Sleep(d) })
		}
		e.Run()
		return e.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	// A daemon parked on a signal forever must not trip the deadlock
	// detector once all regular processes finish.
	e := NewEnv()
	s := e.NewSignal("work")
	e.GoDaemon("worker", func(p *Proc) {
		for {
			s.Wait(p)
		}
	})
	e.Go("main", func(p *Proc) { p.Sleep(100) })
	e.Run() // must return, not panic
	if e.Now() != 100 {
		t.Fatalf("clock = %d", e.Now())
	}
}

func TestDaemonStillCountsWhenRegularBlocked(t *testing.T) {
	// A blocked NON-daemon still panics even when daemons are around.
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEnv()
	s := e.NewSignal("never")
	e.GoDaemon("d", func(p *Proc) { s.Wait(p) })
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	e.Run()
}

func TestRunResumableAfterDrain(t *testing.T) {
	// Run, then schedule more work, then Run again: the env keeps the
	// clock and continues (used throughout the bench harness).
	e := NewEnv()
	e.Go("a", func(p *Proc) { p.Sleep(50) })
	e.Run()
	if e.Now() != 50 {
		t.Fatalf("clock = %d", e.Now())
	}
	e.Go("b", func(p *Proc) { p.Sleep(25) })
	e.Run()
	if e.Now() != 75 {
		t.Fatalf("clock after resume = %d", e.Now())
	}
}

// A sleeper that scheduled its wakeup for instant T before the clock
// reached T (heap path) must run before a process unblocked at T (ring
// path): the sleeper's event has the older sequence number.
func TestHeapEventBeatsRingEventAtSameInstant(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var order []string
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100) // scheduled at t=0 for t=100: enters the heap
		order = append(order, "sleeper")
	})
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		order = append(order, "waiter")
	})
	e.GoAt(100, "firer", func(p *Proc) {
		// Fires at t=100: the waiter's resume enters the ready ring with
		// a newer seq than the sleeper's heap event for the same instant.
		s.Fire()
		order = append(order, "firer")
	})
	e.Run()
	// At t=100 the heap holds the firer's start (seq 3) and the
	// sleeper's wakeup (seq 4); the waiter's unblock (seq 5) enters the
	// ready ring when Fire runs. FIFO by seq across both structures.
	want := []string{"firer", "sleeper", "waiter"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// FIFO order must survive the head-cursor compaction in Resource's
// waiter queue across many acquire/release cycles.
func TestResourceFIFOManyWaiters(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	const n = 200
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.GoAt(Time(i), "w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(1000)
			r.Release()
		})
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("ran %d, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want ascending", i, v)
		}
	}
	if r.QueueLen() != 0 {
		t.Fatalf("queue len = %d, want 0", r.QueueLen())
	}
}

// Events counts every executed event, across repeated Runs.
func TestEventsCounter(t *testing.T) {
	e := NewEnv()
	e.Go("a", func(p *Proc) {
		for i := 0; i < 9; i++ {
			p.Sleep(10)
		}
	})
	e.Run()
	// 1 initial resume + 9 sleeps.
	if e.Events() != 10 {
		t.Fatalf("events = %d, want 10", e.Events())
	}
	e.Go("b", func(p *Proc) { p.Sleep(10) })
	e.Run()
	if e.Events() != 12 {
		t.Fatalf("events after second run = %d, want 12", e.Events())
	}
}

// The tick hook fires when the clock reaches or passes its deadline,
// observing state between events, and stops when it returns a time
// that does not advance.
func TestTickHook(t *testing.T) {
	e := NewEnv()
	var ticks []Time
	e.SetTick(100, func(now Time) Time {
		ticks = append(ticks, now)
		if now >= 1000 {
			return now // stop
		}
		// Next boundary strictly after now.
		return (now/100 + 1) * 100
	})
	e.Go("a", func(p *Proc) {
		p.Sleep(50)  // t=50: below first deadline
		p.Sleep(50)  // t=100: tick
		p.Sleep(250) // t=350: tick (crossed 200 and 300 in one jump)
		p.Sleep(650) // t=1000: tick, then hook stops itself
		p.Sleep(500) // t=1500: no tick
	})
	e.Run()
	want := []Time{100, 350, 1000}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// Run-end hooks fire once per Run return, in registration order.
func TestOnRunEnd(t *testing.T) {
	e := NewEnv()
	var order []string
	e.OnRunEnd(func() { order = append(order, "a") })
	e.OnRunEnd(func() { order = append(order, "b") })
	e.Go("w", func(p *Proc) { p.Sleep(10) })
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("run-end order = %v, want [a b]", order)
	}
	e.Go("w2", func(p *Proc) { p.Sleep(10) })
	e.Run()
	if len(order) != 4 {
		t.Fatalf("run-end hooks fired %d times total, want 4", len(order))
	}
}

// FireOne wakes waiters one at a time in the order they parked; the
// rest stay parked, and a fire with nobody waiting only counts.
func TestSignalFireOneFIFO(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	s.FireOne() // empty signal: no-op
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.GoDaemon("waiter", func(p *Proc) {
			p.Sleep(Duration(i)) // park in index order
			s.Wait(p)
			order = append(order, i)
		})
	}
	e.GoAt(100, "firer", func(p *Proc) {
		for k := 0; k < 3; k++ {
			s.FireOne()
			p.Sleep(10)
			if len(order) != k+1 || order[k] != k {
				t.Errorf("after %d FireOne: woke %v", k+1, order)
			}
		}
	})
	e.Run()
	if s.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1 still parked", s.Waiters())
	}
	if s.Fires() != 4 {
		t.Fatalf("fires = %d, want 4 (the empty one counts)", s.Fires())
	}
}

// Fire after FireOne wakes exactly the waiters FireOne left, and the
// signal is reusable afterwards.
func TestSignalFireOneThenFire(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var order []int
	wait := func(i int) {
		e.Go("waiter", func(p *Proc) {
			s.Wait(p)
			order = append(order, i)
		})
	}
	for i := 0; i < 3; i++ {
		wait(i)
	}
	e.GoAt(10, "firer", func(p *Proc) {
		s.FireOne()
		s.Fire()
		if s.Waiters() != 0 {
			t.Errorf("waiters after Fire = %d", s.Waiters())
		}
		p.Sleep(10)
		wait(3)
		p.Sleep(10)
		s.FireOne()
	})
	e.Run()
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("wake order %v, want [0 1 2 3]", order)
	}
}

// A worker pool that never fully drains — FireOne takes the head, the
// worker re-parks at the tail — must not grow the waiter array without
// bound, nor allocate once it has reached its size.
func TestSignalFireOneReusesWaiterSlice(t *testing.T) {
	const workers = 5
	e := NewEnv()
	s := e.NewSignal("s")
	served := 0
	for i := 0; i < workers; i++ {
		e.GoDaemon("worker", func(p *Proc) {
			for {
				s.Wait(p)
				served++
			}
		})
	}
	var mallocs uint64
	e.Go("producer", func(p *Proc) {
		round := func(n int) {
			for k := 0; k < n; k++ {
				s.FireOne()
				p.Sleep(1)
			}
		}
		round(100) // reach steady state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		round(10000)
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	e.Run()
	if served != 10100 {
		t.Fatalf("served %d, want 10100", served)
	}
	if s.Waiters() != workers {
		t.Fatalf("waiters = %d, want %d", s.Waiters(), workers)
	}
	if c := cap(s.waiters); c > 4*workers {
		t.Fatalf("waiter array grew to %d for %d workers", c, workers)
	}
	if mallocs > 10 {
		t.Fatalf("%d allocations over 10000 FireOne/Wait cycles, want none", mallocs)
	}
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

// Fires reports how many times the signal fired.
func (s *Signal) Fires() uint64 { return s.fires }
