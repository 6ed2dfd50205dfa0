package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ctrCond holds when a shared counter reaches arg (mod == 0) or sits at
// arg modulo mod — a condition that can turn true and false again.
type ctrCond struct {
	ctr *int64
	mod int64
}

func (c *ctrCond) Holds(arg int64) bool {
	if c.mod == 0 {
		return *c.ctr >= arg
	}
	return *c.ctr%c.mod == arg
}

// step is one effectful action of a herd scenario, as the log records it.
type step struct {
	proc int
	at   Time
	what string
}

// herdScenario runs one seeded scenario — waiters and firers over a
// few signals and counters — and returns its log of effectful steps,
// the events the run dispatched, and the re-checks a Fire's wake-up
// failed. With loop set every conditional wait is the re-check loop
// `for !c.Holds(arg) { s.Wait(p) }`; otherwise it is s.WaitUntil.
func herdScenario(seed int64, loop bool) (log []step, events, failed uint64) {
	rng := rand.New(rand.NewSource(seed))
	nsig, nctr := 1+rng.Intn(3), 1+rng.Intn(3)
	nwait, nfire := 2+rng.Intn(10), 1+rng.Intn(3)
	e := NewEnv()
	defer e.Shutdown()
	sigs := make([]*Signal, nsig)
	for i := range sigs {
		sigs[i] = e.NewSignal(fmt.Sprintf("s%d", i))
	}
	ctrs := make([]int64, nctr)
	// woken marks a process FireOne woke: its failed re-check resumes it
	// under WaitUntil too, so it is not one a herd saves.
	woken := map[*Proc]bool{}
	record := func(p *Proc, id int, what string, args ...interface{}) {
		log = append(log, step{id, p.env.now, fmt.Sprintf(what, args...)})
	}
	// wait parks until c holds on s, the way the scenario's mode says.
	wait := func(p *Proc, s *Signal, c *ctrCond, arg int64) {
		if !loop {
			s.WaitUntil(p, c, arg)
			return
		}
		for !c.Holds(arg) {
			s.Wait(p)
			if !c.Holds(arg) && !woken[p] {
				failed++
			}
			woken[p] = false
		}
	}
	// act is the effectful part of a process's round: bump a counter,
	// fire a signal, spawn a same-instant waiter, or sleep.
	var spawn func(id int, r *rand.Rand)
	spawned := nwait
	act := func(p *Proc, id int, r *rand.Rand) {
		switch r.Intn(6) {
		case 0, 1:
			c := r.Intn(nctr)
			ctrs[c] += int64(1 + r.Intn(2))
			record(p, id, "ctr%d=%d", c, ctrs[c])
		case 2:
			s := sigs[r.Intn(nsig)]
			s.Fire()
			record(p, id, "fire %s", s.name)
		case 3:
			s := sigs[r.Intn(nsig)]
			if loop && s.whead < len(s.waiters) {
				woken[s.waiters[s.whead]] = true
			}
			s.FireOne()
			record(p, id, "fireone %s", s.name)
		case 4:
			sub := rand.New(rand.NewSource(r.Int63()))
			if spawned < 20 {
				spawned++
				spawn(spawned, sub)
				record(p, id, "spawn")
			}
		default:
			d := Duration(r.Intn(3))
			p.Sleep(d)
			record(p, id, "slept %d", d)
		}
	}
	// A waiter parks on a random signal for a random counter condition,
	// plain or conditional, then acts; its rounds end in a Sleep or not.
	waiter := func(id int, r *rand.Rand) func(p *Proc) {
		return func(p *Proc) {
			for round := 0; round < 6; round++ {
				s := sigs[r.Intn(nsig)]
				if r.Intn(4) == 0 {
					s.Wait(p)
					woken[p] = false
					record(p, id, "woke %s", s.name)
				} else {
					ci := r.Intn(nctr)
					c := &ctrCond{ctr: &ctrs[ci]}
					arg := ctrs[ci] + int64(1+r.Intn(3))
					if r.Intn(2) == 0 {
						c.mod = int64(2 + r.Intn(3))
						arg = int64(r.Intn(int(c.mod)))
					}
					wait(p, s, c, arg)
					record(p, id, "passed %s ctr%d", s.name, ci)
				}
				for n := r.Intn(3); n > 0; n-- {
					act(p, id, r)
				}
			}
		}
	}
	spawn = func(id int, r *rand.Rand) {
		e.GoDaemon(fmt.Sprintf("w%d", id), waiter(id, r))
	}
	for i := 0; i < nwait; i++ {
		spawn(i, rand.New(rand.NewSource(rng.Int63())))
	}
	for i := 0; i < nfire; i++ {
		id, r := 1000+i, rand.New(rand.NewSource(rng.Int63()))
		e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
			for round := 0; round < 40; round++ {
				act(p, id, r)
			}
		})
	}
	e.Run()
	return log, e.Events(), failed
}

// WaitUntil skips a failed re-check and nothing else: every effectful
// step happens at the same instant and in the same order as under the
// re-check loop, and the events differ by exactly the failed re-checks.
func TestWaitUntilMatchesRecheckLoop(t *testing.T) {
	var totalFailed uint64
	for seed := int64(1); seed <= 300; seed++ {
		logLoop, evLoop, failed := herdScenario(seed, true)
		logUntil, evUntil, _ := herdScenario(seed, false)
		if i := firstDiff(logLoop, logUntil); i >= 0 {
			t.Fatalf("seed %d: logs part at step %d of %d/%d:\nloop  %s\nuntil %s",
				seed, i, len(logLoop), len(logUntil), at(logLoop, i), at(logUntil, i))
		}
		if evLoop-evUntil != failed {
			t.Fatalf("seed %d: loop dispatched %d events, WaitUntil %d; want %d fewer (failed re-checks)",
				seed, evLoop, evUntil, failed)
		}
		totalFailed += failed
	}
	if totalFailed == 0 {
		t.Fatal("no scenario failed a re-check: the test exercises nothing")
	}
	t.Logf("%d failed re-checks skipped over 300 scenarios", totalFailed)
}

func firstDiff(a, b []step) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(log []step, i int) string {
	if i >= len(log) {
		return "(end)"
	}
	return fmt.Sprintf("%+v", log[i])
}

// turn is the condition "the shared counter equals my ticket".
type turn struct{ n int64 }

func (c *turn) Holds(t int64) bool { return c.n == t }

// A herd re-checks in the kernel: of 8 waiters for their turn, each
// Fire resumes only the one whose turn came.
func TestWaitUntilResumesOnlyWhoseConditionHolds(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("turn")
	c := &turn{}
	var order []int64
	for i := int64(8); i > 0; i-- {
		e.Go("w", func(p *Proc) {
			s.WaitUntil(p, c, i)
			order = append(order, i)
		})
	}
	e.Go("firer", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(1)
			c.n++
			s.Fire()
		}
	})
	e.Run()
	if !slices.Equal(order, []int64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("turns taken in order %v", order)
	}
	// 9 starts, 8 firer wake-ups, 8 waiters resumed once each.
	if got := e.Events(); got != 25 {
		t.Fatalf("dispatched %d events, want 25", got)
	}
}

// A process that faults right after a Fire still surfaces by name, with
// the herd still queued; Shutdown unwinds each member exactly once and
// never mistakes the herd for a process.
func TestFaultAfterFireWithHerdPending(t *testing.T) {
	for _, mid := range []bool{false, true} {
		t.Run(fmt.Sprintf("mid-herd=%v", mid), func(t *testing.T) {
			e := NewEnv()
			s := e.NewSignal("s")
			c := &turn{n: -1}
			unwound := make([]int, 4)
			for i := range unwound {
				e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
					defer func() { unwound[i]++ }()
					s.WaitUntil(p, c, int64(i%2))
					panic("boom")
				})
			}
			// The herd is w0..w3, and only the odd members pass: w1 is
			// dispatched second, with w2 and w3 still queued.
			name := "w1"
			e.Go("firer", func(p *Proc) {
				p.Sleep(1)
				c.n = 1
				s.Fire()
				if !mid {
					name = "firer"
					panic("boom")
				}
			})
			msg := runPanics(e)
			if want := fmt.Sprintf("sim: process %q faulted: boom", name); !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want %q", msg, want)
			}
			e.Shutdown()
			// A faulted member ran its defer as it panicked.
			for i, n := range unwound {
				if n != 1 {
					t.Errorf("w%d unwound %d times, want 1", i, n)
				}
			}
		})
	}
}

func runPanics(e *Env) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	e.Run()
	return ""
}

// never is a condition that never holds.
type never struct{}

func (never) Holds(int64) bool { return false }

// A herd whose conditions cannot hold is a deadlock, reported with its
// members' labels; daemons in one are exempt, as they are in a Wait.
func TestHerdThatNeverPassesIsADeadlock(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	for _, n := range []string{"a", "b"} {
		e.Go(n, func(p *Proc) { s.WaitUntil(p, never{}, 0) })
	}
	e.GoDaemon("d", func(p *Proc) { s.WaitUntil(p, never{}, 0) })
	e.Go("firer", func(p *Proc) { p.Sleep(1); s.Fire(); s.Fire() })
	msg := runPanics(e)
	if want := "sim: deadlock, blocked processes: a (signal s), b (signal s), d (signal s)"; msg != want {
		t.Fatalf("panic %q, want %q", msg, want)
	}
	e.Shutdown()

	e = NewEnv()
	defer e.Shutdown()
	s = e.NewSignal("s")
	for i := 0; i < 3; i++ {
		e.GoDaemon("d", func(p *Proc) { s.WaitUntil(p, never{}, 0) })
	}
	e.Go("firer", func(p *Proc) { p.Sleep(1); s.Fire() })
	e.Run()
	if s.Waiters() != 3 {
		t.Fatalf("%d daemons parked after the herd, want 3", s.Waiters())
	}
}
