package sim

import "testing"

// Edge-of-contract tests for Resource and Signal: handoff vs
// TryAcquire, waiter-queue wraparound, zero-capacity construction,
// zero-duration Use, and Signal re-wait/spare-slice behavior.

// A Release with queued waiters hands the unit directly to the head
// waiter — a TryAcquire racing at the same instant, after the release
// but before the waiter resumes, must not steal it.
func TestTryAcquireCannotJumpHandoff(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var stole bool
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release() // hands off to "waiter" queued at t=50
	})
	e.GoAt(50, "waiter", func(p *Proc) {
		r.Acquire(p)
		order = append(order, "waiter")
		p.Sleep(50)
		r.Release()
	})
	// Scheduled after "holder" at the same instant, so this runs after
	// the release and before the waiter's resume event.
	e.GoAt(100, "trier", func(p *Proc) {
		if r.TryAcquire() {
			stole = true
			r.Release()
		}
		p.Sleep(100) // t=200: waiter released at 150, resource idle
		if !r.TryAcquire() {
			t.Error("TryAcquire failed on an idle resource")
			return
		}
		order = append(order, "trier")
		r.Release()
	})
	e.Run()
	if stole {
		t.Error("TryAcquire stole a unit reserved for a queued waiter")
	}
	if len(order) != 2 || order[0] != "waiter" || order[1] != "trier" {
		t.Errorf("service order = %v, want [waiter trier]", order)
	}
}

// Appending new waiters while whead is mid-slice, draining across the
// reset point, must keep strict FIFO order and leave the queue fully
// compacted when it empties.
func TestResourceWaiterQueueWraparound(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []int
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	use := func(id int) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, id)
			p.Sleep(10)
			r.Release()
		}
	}
	// 1..3 queue while the holder runs; 4 and 5 arrive after handoffs
	// have advanced whead past the slice head but before it drains.
	for i := 1; i <= 3; i++ {
		e.GoAt(Time(10*i), "w", use(i))
	}
	e.GoAt(105, "w", use(4)) // whead=1 (serving 1), len=3
	e.GoAt(118, "w", use(5)) // whead=2 (serving 2), len=4
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v (FIFO across wraparound)", order, want)
		}
	}
	if r.whead != 0 || len(r.waiters) != 0 {
		t.Errorf("drained queue not reset: whead=%d len=%d", r.whead, len(r.waiters))
	}
	if r.QueueLen() != 0 || r.InUse() != 0 {
		t.Errorf("resource not idle: queue=%d inUse=%d", r.QueueLen(), r.InUse())
	}
}

// Capacity below one is a construction error, not a quietly-useless
// resource.
func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewEnv().NewResource("r", 0)
}

// Use with a zero duration still round-trips Acquire/Release and
// reports pure queueing delay.
func TestZeroDurationUse(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var free, contended Duration
	e.Go("holder", func(p *Proc) {
		free = r.Use(p, 0) // idle resource: total time 0
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	e.GoAt(40, "queued", func(p *Proc) {
		contended = r.Use(p, 0) // waits t=40..100, then holds for 0
	})
	e.Run()
	if free != 0 {
		t.Errorf("zero-duration Use on idle resource took %v, want 0", free)
	}
	if contended != 60 {
		t.Errorf("zero-duration Use under contention took %v, want 60 (pure queueing)", contended)
	}
	if r.InUse() != 0 {
		t.Errorf("resource still held after Use: inUse=%d", r.InUse())
	}
	if busy := r.Busy(); busy != 100 {
		t.Errorf("Busy = %v, want 100 (the zero-length holds add nothing)", busy)
	}
}

// A waiter that re-Waits from inside the wakeup of a Fire must not see
// the same fire twice, and the recycled spare slice must not leak
// old waiters into the next Fire.
func TestSignalReWaitNeedsNextFire(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var wakes int
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		wakes++
		s.Wait(p) // re-registered after the fire: needs a second Fire
		wakes++
	})
	e.GoAt(10, "firer", func(p *Proc) {
		s.Fire()
		p.Sleep(10)
		if s.Waiters() != 1 {
			t.Errorf("re-waiting proc not registered: waiters=%d", s.Waiters())
		}
		s.Fire()
		p.Sleep(10)
		s.Fire() // no waiters: must be a no-op, not a double-wake
	})
	e.Run()
	if wakes != 2 {
		t.Errorf("waiter woke %d times, want 2", wakes)
	}
	if s.Fires() != 3 {
		t.Errorf("fires=%d, want 3", s.Fires())
	}
	if s.Waiters() != 0 {
		t.Errorf("stale waiters after final fire: %d", s.Waiters())
	}
}
