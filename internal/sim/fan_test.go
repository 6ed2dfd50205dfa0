package sim

import (
	"errors"
	"fmt"
	"testing"
)

// fanArg is a test fork-join's argument: a tag its workers report, and
// the worker that fails (-1 for none).
type fanArg struct {
	tag  int
	fail int
}

// A join record is pooled, so the error one Run returned must not reach
// the next Run that reuses the record.
func TestFanPooledJoinForgetsItsError(t *testing.T) {
	e := NewEnv()
	boom := errors.New("boom")
	f := NewFan(e, "w", func(w *Proc, a *fanArg, i int) error {
		w.Sleep(Duration(i + 1))
		if i == a.fail {
			return boom
		}
		return nil
	})
	var errs [3]error
	e.Go("caller", func(p *Proc) {
		errs[0] = f.Run(p, 4, fanArg{fail: 2})
		errs[1] = f.Run(p, 4, fanArg{fail: -1})
		errs[2] = f.Run(p, 4, fanArg{fail: 3})
	})
	e.Run()
	if errs[0] != boom || errs[1] != nil || errs[2] != boom {
		t.Fatalf("Run errors %v; want boom, nil, boom", errs)
	}
	if len(f.free) != 1 {
		t.Fatalf("%d pooled join records after sequential Runs, want 1", len(f.free))
	}
	if j := f.free[0]; j.a != (fanArg{}) || j.err != nil || j.caller != nil {
		t.Fatal("a pooled join record kept its argument, error or caller")
	}
}

// Runs started at one instant run their workers side by side; each
// Run's workers see its own argument, and each Run returns its own
// workers' first error.
func TestFanConcurrentRunsAreSeparate(t *testing.T) {
	e := NewEnv()
	seen := map[string]int{}
	f := NewFan(e, "w", func(w *Proc, a *fanArg, i int) error {
		w.Sleep(Duration(3 - i))
		seen[fmt.Sprintf("%d/%d", a.tag, i)] = a.tag
		if i == a.fail {
			return fmt.Errorf("run %d worker %d", a.tag, i)
		}
		return nil
	})
	var errs [2]error
	var done [2]Time
	for c, arg := range []fanArg{{tag: 10, fail: 1}, {tag: 20, fail: 0}} {
		e.GoIdx("caller", c, func(p *Proc, c int) {
			errs[c] = f.Run(p, 3, arg)
			done[c] = e.Now()
		})
	}
	e.Run()
	if errs[0] == nil || errs[0].Error() != "run 10 worker 1" || errs[1] == nil || errs[1].Error() != "run 20 worker 0" {
		t.Fatalf("Run errors %v; want each Run's own worker's", errs)
	}
	if len(seen) != 6 {
		t.Fatalf("workers saw %v; want 3 workers of each Run", seen)
	}
	for k, tag := range seen {
		if want := k[:2]; fmt.Sprint(tag) != want {
			t.Fatalf("worker %s saw tag %d", k, tag)
		}
	}
	if done != [2]Time{3, 3} {
		t.Fatalf("Runs returned at %v; want both at 3 (their slowest worker)", done)
	}
	if len(f.free) != 2 {
		t.Fatalf("%d pooled join records after two concurrent Runs, want 2", len(f.free))
	}
}

// Once a Run has warmed the join pool and the process pool, a Run
// allocates nothing.
func TestFanWarmRunDoesNotAllocate(t *testing.T) {
	e := NewEnv()
	defer e.Shutdown()
	f := NewFan(e, "w", func(w *Proc, a *fanArg, i int) error {
		w.Sleep(Duration(i))
		return nil
	})
	var allocs float64
	e.Go("caller", func(p *Proc) {
		f.Run(p, 8, fanArg{}) // warm
		allocs = testing.AllocsPerRun(100, func() {
			f.Run(p, 8, fanArg{tag: 1})
		})
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("a warm 8-worker Run allocates %.1f times, want 0", allocs)
	}
}

// A Run of no workers returns at once: no process started, no park, no
// event.
func TestFanZeroWorkersDoesNotPark(t *testing.T) {
	e := NewEnv()
	calls := 0
	f := NewFan(e, "w", func(w *Proc, a *fanArg, i int) error {
		calls++
		return nil
	})
	var err error
	var before, after uint64
	e.Go("caller", func(p *Proc) {
		before = e.Events()
		err = f.Run(p, 0, fanArg{})
		after = e.Events()
	})
	e.Run()
	if err != nil || calls != 0 || after != before || len(f.free) != 0 {
		t.Fatalf("n = 0: err %v, %d bodies run, %d events, %d join records; want none of them",
			err, calls, after-before, len(f.free))
	}
}

// fanStep is one dispatch as the process resumed sees it.
type fanStep struct {
	at   Time
	name string
}

// fanSchedule runs a fixed schedule of fork-joins — callers that start
// at one instant and at different ones, bystanders that sleep onto the
// joins' instants, workers of uneven lengths — with join doing each
// fork-join. It returns every dispatch in order and the event count.
func fanSchedule(join func(e *Env, p *Proc, n int, body func(w *Proc, i int))) ([]fanStep, uint64) {
	e := NewEnv()
	var trace []fanStep
	step := func(p *Proc) { trace = append(trace, fanStep{e.Now(), p.Name()}) }
	sleep := func(p *Proc, d Duration) {
		p.Sleep(d)
		step(p)
	}
	// The bystanders wake from the heap and then go to the back of the
	// ready ring, so at many instants they are queued there when a
	// join's last worker returns.
	for b, period := range []Duration{2, 3} {
		e.GoIdx("bystander", b, func(p *Proc, _ int) {
			step(p)
			for i := 0; i < 20; i++ {
				sleep(p, period)
				sleep(p, 0)
			}
		})
	}
	for c, at := range []Time{0, 0, 5} {
		e.GoAt(at, fmt.Sprintf("caller%d", c), func(p *Proc) {
			step(p)
			for r, n := range []int{3, 1, 4, 2} {
				join(e, p, n+c, func(w *Proc, i int) {
					step(w)
					for k := 0; k <= (i+r+c)%3; k++ {
						sleep(w, Duration((i*7+c)%5))
					}
				})
				step(p)
				sleep(p, Duration(r))
			}
		})
	}
	e.Run()
	return trace, e.Events()
}

// A Fan wakes its caller where a WaitGroup joined over GoIdx workers
// would: the same dispatches, at the same instants, in the same order,
// and the same event count.
func TestFanMatchesWaitGroupSchedule(t *testing.T) {
	byFan, nFan := fanSchedule(func(e *Env, p *Proc, n int, body func(w *Proc, i int)) {
		f := NewFan(e, "worker", func(w *Proc, _ *struct{}, i int) error {
			body(w, i)
			return nil
		})
		f.Run(p, n, struct{}{})
	})
	byWG, nWG := fanSchedule(func(e *Env, p *Proc, n int, body func(w *Proc, i int)) {
		wg := e.NewWaitGroup("worker")
		wg.Add(n)
		for i := 0; i < n; i++ {
			e.GoIdx("worker", i, func(w *Proc, i int) {
				defer wg.Done()
				body(w, i)
			})
		}
		wg.Wait(p)
	})
	if nFan != nWG {
		t.Fatalf("Fan schedule dispatched %d events, WaitGroup %d", nFan, nWG)
	}
	if len(byFan) != len(byWG) {
		t.Fatalf("Fan schedule has %d steps, WaitGroup %d", len(byFan), len(byWG))
	}
	for i := range byFan {
		if byFan[i] != byWG[i] {
			t.Fatalf("step %d: Fan %v, WaitGroup %v", i, byFan[i], byWG[i])
		}
	}
	if len(byFan) < 100 {
		t.Fatalf("schedule has only %d steps; it exercises little", len(byFan))
	}
}
