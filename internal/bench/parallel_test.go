package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the current goroutine's id ("goroutine 12 [running]").
func goid() string {
	buf := make([]byte, 32)
	buf = buf[:runtime.Stack(buf, false)]
	for i := len("goroutine "); i < len(buf); i++ {
		if buf[i] == ' ' {
			return string(buf[:i])
		}
	}
	return string(buf)
}

func TestPointsIndexOrder(t *testing.T) {
	for _, jobs := range []int{1, 3, 64} {
		got := points(NewRunner(Quick, jobs), 100, func(i int) int {
			for k := 0; k < i%5; k++ {
				runtime.Gosched() // finish out of order
			}
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestPointsSequentialOnCaller: jobs == 1 is the legacy execution —
// every point on the calling goroutine, in index order.
func TestPointsSequentialOnCaller(t *testing.T) {
	caller := goid()
	var order []int
	points(NewRunner(Quick, 1), 10, func(i int) struct{} {
		if g := goid(); g != caller {
			t.Errorf("point %d ran on %s, caller is %s", i, g, caller)
		}
		order = append(order, i)
		return struct{}{}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v, want 0..9", order)
		}
	}
}

// TestPointsPanicAfterAllFinish: the first panic is re-raised on the
// caller, and only once every other point has run to completion.
func TestPointsPanicAfterAllFinish(t *testing.T) {
	const n = 8
	var finished atomic.Int32
	failing := make(chan struct{})
	defer func() {
		if v := recover(); v != "point 0" {
			t.Fatalf("recovered %v, want the first point's panic", v)
		}
		if got := finished.Load(); got != n-1 {
			t.Fatalf("panic re-raised with %d of %d other points finished", got, n-1)
		}
	}()
	// jobs = n: every point holds a slot while it waits for point 0.
	points(NewRunner(Quick, n), n, func(i int) struct{} {
		if i == 0 {
			close(failing)
			panic("point 0")
		}
		<-failing // finish only after the panic is under way
		runtime.Gosched()
		finished.Add(1)
		return struct{}{}
	})
	t.Fatal("points returned normally")
}

// TestRunnerBoundsConcurrency: -j is a bound. Experiments that share a
// Runner — fanned-out sweeps, lone points and single-environment
// experiments, started concurrently the way bench2b's runAll starts
// them — never have more than Jobs() point functions running at once.
func TestRunnerBoundsConcurrency(t *testing.T) {
	const jobs = 2
	r := NewRunner(Quick, jobs)
	var running, peak atomic.Int32
	work := func() {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		for k := 0; k < 20; k++ {
			runtime.Gosched()
		}
		running.Add(-1)
	}
	sweep := func() { points(r, 16, func(int) struct{} { work(); return struct{}{} }) }
	lone := func() { points(r, 1, func(int) struct{} { work(); return struct{}{} }) }
	one := func() { single(r, func(Scale) *Table { work(); return nil }) }
	var wg sync.WaitGroup
	for _, ex := range []func(){sweep, lone, one, one, sweep, one, lone} {
		ex := ex
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex()
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > jobs {
		t.Fatalf("peak %d point functions running at once, want <= %d", got, jobs)
	}
}
