package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// pingPongTrace runs a two-partition request/response exchange and
// returns the receiver-side trace (message, arrival time).
func pingPongTrace() (trace []string) {
	g := NewGroup()
	a := g.NewEnv("a")
	b := g.NewEnv("b")
	req := NewLink[int](g, a, b, "req", 5*Microsecond)
	rsp := NewLink[int](g, b, a, "rsp", 3*Microsecond)

	a.Go("client", func(p *Proc) {
		for i := 0; i < 4; i++ {
			req.Send(p, i)
			v, ok := rsp.Recv(p)
			if !ok {
				panic("rsp closed early")
			}
			trace = append(trace, fmt.Sprintf("a got %d @%d", v, a.Now()))
			p.Sleep(Microsecond)
		}
		req.Close(p)
	})
	b.Go("server", func(p *Proc) {
		for {
			v, ok := req.Recv(p)
			if !ok {
				return
			}
			trace = append(trace, fmt.Sprintf("b got %d @%d", v, b.Now()))
			p.Sleep(2 * Microsecond) // service time
			rsp.Send(p, v*10)
		}
	})
	g.Run()
	return trace
}

func TestPartitionPingPongTiming(t *testing.T) {
	trace := pingPongTrace()
	// Round trip: send@t, arrive t+5us, service 2us, reply arrives +3us.
	want := []string{
		"b got 0 @5000", "a got 0 @10000",
		"b got 1 @16000", "a got 10 @21000",
		"b got 2 @27000", "a got 20 @32000",
		"b got 3 @38000", "a got 30 @43000",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v\nwant    %v", trace, want)
	}
}

// TestPartitionMatchesSingleEnv models the identical pipeline twice —
// once in a single environment with plain sleeps, once split across two
// partitions with a link carrying the hop latency — and requires the
// same completion times.
func TestPartitionMatchesSingleEnv(t *testing.T) {
	const hop = 7 * Microsecond
	const work = 3 * Microsecond
	const n = 50

	// Serial reference: one env, two processes, the hop modeled as an
	// arrival timestamp the consumer sleeps until.
	ref := NewEnv()
	var refDone []Time
	var xfer []Time
	closed := false
	avail := ref.NewSignal("xfer")
	ref.Go("stage1", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(work)
			xfer = append(xfer, ref.Now()+Time(hop))
			avail.Fire()
		}
		closed = true
		avail.Fire()
	})
	ref.Go("stage2", func(p *Proc) {
		for i := 0; ; i++ {
			for i == len(xfer) {
				if closed {
					return
				}
				avail.Wait(p)
			}
			if arrival := xfer[i]; arrival > ref.Now() {
				p.Sleep(Duration(arrival - ref.Now()))
			}
			p.Sleep(2 * work)
			refDone = append(refDone, ref.Now())
		}
	})
	ref.Run()

	// Partitioned: stage 1 on env s1, stage 2 on env s2, link carries hop.
	g := NewGroup()
	s1 := g.NewEnv("s1")
	s2 := g.NewEnv("s2")
	lk := NewLink[int](g, s1, s2, "xfer", hop)
	s1.Go("stage1", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(work)
			lk.Send(p, i)
		}
		lk.Close(p)
	})
	var gotDone []Time
	s2.Go("stage2", func(p *Proc) {
		for {
			_, ok := lk.Recv(p)
			if !ok {
				return
			}
			p.Sleep(2 * work)
			gotDone = append(gotDone, s2.Now())
		}
	})
	g.Run()

	if !reflect.DeepEqual(refDone, gotDone) {
		t.Fatalf("partitioned completion times diverge from single-env run:\n%v\nvs\n%v", gotDone, refDone)
	}
}

func TestLinkFIFOAndClose(t *testing.T) {
	g := NewGroup()
	a := g.NewEnv("a")
	b := g.NewEnv("b")
	lk := NewLink[string](g, a, b, "l", Microsecond)
	a.Go("tx", func(p *Proc) {
		lk.Send(p, "x") // same instant: FIFO must hold
		lk.Send(p, "y")
		p.Sleep(Microsecond)
		lk.Send(p, "z")
		lk.Close(p)
	})
	var got []string
	closedAt := Time(-1)
	b.Go("rx", func(p *Proc) {
		for {
			v, ok := lk.Recv(p)
			if !ok {
				closedAt = b.Now()
				return
			}
			got = append(got, fmt.Sprintf("%s@%d", v, b.Now()))
		}
	})
	g.Run()
	want := []string{"x@1000", "y@1000", "z@2000"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if closedAt != 2000 {
		t.Fatalf("close observed at %d, want 2000 (one latency after sender close)", closedAt)
	}
}

// TestLinkMessageIsOneEvent pins the event count of a ping-pong with no
// sleeps: each message is one event, the wake of its parked receiver,
// on top of the two process starts and the close.
func TestLinkMessageIsOneEvent(t *testing.T) {
	const n = 50
	g := NewGroup()
	a := g.NewEnv("a")
	b := g.NewEnv("b")
	req := NewLink[int](g, a, b, "req", 5*Microsecond)
	rsp := NewLink[int](g, b, a, "rsp", 3*Microsecond)
	a.Go("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Send(p, i)
			if v, ok := rsp.Recv(p); !ok || v != i {
				panic(fmt.Sprintf("reply %d, %v to request %d", v, ok, i))
			}
		}
		req.Close(p)
	})
	b.Go("server", func(p *Proc) {
		for {
			v, ok := req.Recv(p)
			if !ok {
				return
			}
			rsp.Send(p, v)
		}
	})
	g.Run()
	if got, want := g.Events(), uint64(2*n+3); got != want {
		t.Fatalf("%d events for %d round trips, want %d", got, n, want)
	}
	// The last reply lands at n round trips of 8us; the close 5us later.
	if want := Time(n * 8 * Microsecond); a.Now() != want || b.Now() != want+Time(5*Microsecond) {
		t.Fatalf("clocks a=%d b=%d", a.Now(), b.Now())
	}
}

func TestLinkSecondReceiverPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "second receiver on link l") {
			t.Fatalf("panic %q, want a second-receiver panic", msg)
		}
	}()
	g := NewGroup()
	a := g.NewEnv("a")
	b := g.NewEnv("b")
	lk := NewLink[int](g, a, b, "l", Microsecond)
	a.Go("tx", func(p *Proc) {
		lk.Send(p, 1)
		lk.Close(p)
	})
	for _, name := range []string{"rx1", "rx2"} {
		b.Go(name, func(p *Proc) {
			for {
				if _, ok := lk.Recv(p); !ok {
					return
				}
			}
		})
	}
	g.Run()
}

func TestPartitionDeadlockNamesPartition(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "partition 1") {
			t.Fatalf("panic %q does not identify the deadlocked partition", msg)
		}
	}()
	g := NewGroup()
	a := g.NewEnv("alpha")
	b := g.NewEnv("beta")
	a.Go("fine", func(p *Proc) { p.Sleep(Microsecond) })
	sig := b.NewSignal("never")
	b.Go("stuck", func(p *Proc) { sig.Wait(p) })
	g.Run()
}

func TestPartitionFaultNamesPartition(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected fault panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "partition 0 (alpha)") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %q does not identify the faulting partition", msg)
		}
	}()
	g := NewGroup()
	a := g.NewEnv("alpha")
	g.NewEnv("beta")
	a.Go("bad", func(p *Proc) { panic("boom") })
	g.Run()
}

func TestRunOnPartitionMemberPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Run on a partition member")
		}
	}()
	g := NewGroup()
	a := g.NewEnv("a")
	a.Run()
}

func TestZeroLatencyLinkPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for zero-latency link")
		}
	}()
	g := NewGroup()
	a := g.NewEnv("a")
	b := g.NewEnv("b")
	NewLink[int](g, a, b, "bad", 0)
}

func TestGroupWithoutLinksRunsToCompletion(t *testing.T) {
	g := NewGroup()
	var ends [3]Time
	for i := 0; i < 3; i++ {
		i := i
		e := g.NewEnv(fmt.Sprintf("p%d", i))
		e.Go("w", func(p *Proc) {
			p.Sleep(Duration(i+1) * Millisecond)
			ends[i] = e.Now()
		})
	}
	g.Run()
	for i, end := range ends {
		if end != Time(i+1)*Time(Millisecond) {
			t.Fatalf("partition %d ended at %d", i, end)
		}
	}
}

func TestShutdownRunsDefersAndReleasesMemory(t *testing.T) {
	e := NewEnv()
	res := e.NewResource("r", 1)
	var cleaned []string
	holder := e.Go("holder", func(p *Proc) {
		res.Acquire(p)
		defer func() {
			cleaned = append(cleaned, "holder")
			res.Release()
		}()
		p.Sleep(Second) // parked on a far-future event at Shutdown time
	})
	waiter := e.Go("waiter", func(p *Proc) {
		defer func() { cleaned = append(cleaned, "waiter") }()
		res.Acquire(p) // parked on the resource at Shutdown time
		res.Release()
	})
	pooled := e.Go("short", func(p *Proc) { p.Sleep(Microsecond) })
	started := false
	unstarted := e.GoAt(Time(Second), "unstarted", func(p *Proc) { started = true })

	// Run a little, then tear down mid-simulation.
	e.Go("stopper", func(p *Proc) { p.Sleep(Millisecond) })
	func() {
		defer func() { recover() }() // the deadlockless partial run is fine
		e.runPhase(Time(2 * Millisecond))
	}()
	e.Shutdown()

	if fmt.Sprint(cleaned) != "[waiter holder]" {
		t.Fatalf("defers ran for %v, want waiter and holder once each", cleaned)
	}
	if started {
		t.Fatal("Shutdown started a body that had not started")
	}
	for _, p := range []*Proc{holder, waiter, pooled, unstarted} {
		if _, ok := p.resume(); ok {
			t.Errorf("%s: coroutine still alive after Shutdown", p.name)
		}
	}
	if e.heap != nil || e.ring != nil || e.blocked != nil || e.free != nil {
		t.Fatal("Shutdown left backing arrays pinned")
	}
	e.Shutdown() // idempotent
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Go on a shut-down env")
		}
	}()
	e.Go("late", func(p *Proc) {})
}

func TestShutdownFreshEnv(t *testing.T) {
	e := NewEnv()
	e.Shutdown() // nothing scheduled: must not hang or panic
	g := NewGroup()
	g.NewEnv("a")
	b := g.NewEnv("b")
	lk := NewLink[int](g, g.parts[0], b, "l", Microsecond)
	_ = lk
	g.Shutdown() // a link starts no process: both partitions are empty
}

func TestSpawnReusesPooledProcs(t *testing.T) {
	e := NewEnv()
	// Warm the pool.
	e.Go("warm", func(p *Proc) {})
	e.Run()
	before := len(e.free)
	if before == 0 {
		t.Fatal("no pooled proc after a clean exit")
	}
	var inner *Proc
	e.Go("reuse", func(p *Proc) { inner = p })
	e.Run()
	if want := e.free[len(e.free)-1]; inner != want {
		t.Fatal("spawn did not reuse the pooled proc")
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Go("spin", func(p *Proc) { p.Sleep(Microsecond) })
		e.Run()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state spawn+run allocates %.2f allocs/op, want ~0", allocs)
	}
}
