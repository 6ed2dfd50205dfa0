// Partitioned execution on one thread: several environments, each with
// its own clock, event heap and ready ring — the kernel in sim.go,
// unchanged — advanced together by the caller's goroutine.
//
// A Group owns N member environments ("partitions") and runs them
// window by window:
//
//	W       = min over partitions of their next pending event time
//	horizon = W + lookahead, where lookahead = min link latency
//
// Within a window each partition in index order dispatches its events
// strictly before the horizon. Partitions interact only through Links,
// and a message sent at t arrives at t + latency >= W + lookahead =
// horizon. So when a Send wakes a parked receiver by scheduling it
// straight into the receiver's heap at the arrival, that event is at or
// past the horizon: it never lands in the past of a partition that has
// already run this window, and a partition still to run this window
// does not dispatch it yet. Event order inside each partition is the
// ordinary (at, seq) order, so every run is exactly reproducible.
//
// Lookahead must be positive — a zero-latency cross-partition
// interaction would force a zero-width window; model such coupling
// inside one partition instead.
package sim

import "fmt"

// Group is a set of environments run in lockstep windows. Create
// members with NewEnv, connect them with NewLink, then call Run once
// all processes are started (Run on a member environment panics).
type Group struct {
	parts     []*Env
	names     []string
	lookahead Duration // min link latency; 0 while there are no links
	running   bool
}

// NewGroup returns an empty partition group.
func NewGroup() *Group { return &Group{} }

// NewEnv adds a named partition and returns its environment.
func (g *Group) NewEnv(name string) *Env {
	if g.running {
		panic("sim: NewEnv during Group.Run")
	}
	e := NewEnv()
	e.grp = g
	e.pid = len(g.parts)
	g.parts = append(g.parts, e)
	g.names = append(g.names, name)
	return e
}

// Events reports the total events executed across all partitions.
func (g *Group) Events() uint64 {
	var n uint64
	for _, e := range g.parts {
		n += e.Events()
	}
	return n
}

// timed is a message annotated with its arrival time; closeMk marks the
// end of the stream.
type timed[T any] struct {
	at      Time
	v       T
	closeMk bool
}

// Link is a typed, unbounded, FIFO message channel from one partition
// to another with a fixed positive latency. Send never blocks; Recv
// parks until a message arrives (in the receiver's virtual time) or the
// link is closed and drained. Messages wait in one queue in arrival
// order (the sender's clock is monotone and the latency fixed), and a
// message costs no event of its own: it is a timed wake of a parked
// receiver. Payloads travel in a typed slice — no interface{} boxing,
// and steady-state messaging does not allocate once the queue has grown
// to its working size.
type Link[T any] struct {
	name     string
	label    string // "link <name>", precomputed for allocation-free parking
	from, to *Env
	latency  Duration

	q      []timed[T] // q[head:] in flight or delivered, in arrival order
	head   int
	closed bool // Close was called (sender side)

	rx     *Proc // the process inside Recv, if any
	parked bool  // rx is blocked on an empty queue; the next Send wakes it
}

// NewLink connects two partitions of g with the given one-way latency
// (> 0; the minimum latency over all links is the group's lookahead).
func NewLink[T any](g *Group, from, to *Env, name string, latency Duration) *Link[T] {
	if g.running {
		panic("sim: NewLink during Group.Run")
	}
	if from.grp != g || to.grp != g {
		panic("sim: link " + name + " endpoints must be partitions of the group")
	}
	if from == to {
		panic("sim: link " + name + " connects a partition to itself")
	}
	if latency <= 0 {
		panic("sim: link " + name + " latency must be positive (it bounds the lockstep window)")
	}
	if g.lookahead == 0 || latency < g.lookahead {
		g.lookahead = latency
	}
	return &Link[T]{name: name, label: "link " + name, from: from, to: to, latency: latency}
}

// Send queues v for delivery at the sender's current time plus the link
// latency. It never blocks and must be called from the source partition.
func (l *Link[T]) Send(p *Proc, v T) { l.push(p, "Send", timed[T]{v: v}) }

// Close marks the end of the stream. The close travels like a message:
// the receiver sees ok=false only after draining everything sent before
// it, one latency later.
func (l *Link[T]) Close(p *Proc) {
	l.push(p, "Close", timed[T]{closeMk: true})
	l.closed = true
}

// push appends m at its arrival time and wakes a receiver parked on the
// empty queue at that arrival.
func (l *Link[T]) push(p *Proc, op string, m timed[T]) {
	if p.env != l.from {
		panic("sim: " + op + " on link " + l.name + " from the wrong partition")
	}
	if l.closed {
		panic("sim: " + op + " on closed link " + l.name)
	}
	m.at = l.from.now + Time(l.latency)
	l.q = append(l.q, m)
	if l.parked {
		l.parked = false
		l.to.schedule(l.rx, m.at)
	}
}

// Recv returns the next delivered message, waiting until one arrives.
// ok is false once the link is closed and drained. Must be called from
// the destination partition, by one process at a time.
func (l *Link[T]) Recv(p *Proc) (v T, ok bool) {
	e := l.to
	if p.env != e {
		panic("sim: Recv on link " + l.name + " from the wrong partition")
	}
	if l.rx != nil {
		panic("sim: second receiver on link " + l.name)
	}
	l.rx = p
	for {
		if l.head == len(l.q) {
			l.parked = true
			p.block(l.label)
		} else if at := l.q[l.head].at; at > e.now {
			p.Sleep(Duration(at - e.now))
		} else {
			break
		}
	}
	l.rx = nil
	m := l.q[l.head]
	if m.closeMk {
		return v, false // the close mark stays: every later Recv sees it too
	}
	l.q[l.head] = timed[T]{}
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return m.v, true
}

// Run executes all partitions to completion in lockstep windows, then
// performs the usual end-of-run duties (deadlock diagnosis, run-end
// hooks) per partition in order. A process fault surfaces as in
// Env.Run, prefixed with the partition name.
func (g *Group) Run() {
	if g.running {
		panic("sim: Group.Run called re-entrantly")
	}
	g.running = true
	defer func() { g.running = false }()

	cur := -1 // the partition running a window, for the fault prefix
	defer func() {
		if cur < 0 {
			return
		}
		if r := recover(); r != nil { // nil: a process called runtime.Goexit
			panic(fmt.Sprintf("sim: partition %d (%s): %v", cur, g.names[cur], r))
		}
	}()
	for {
		w := maxTime
		for _, e := range g.parts {
			w = min(w, e.peekNext())
		}
		if w == maxTime {
			break
		}
		horizon := maxTime // without links, or past the clock's range, run to the end
		if g.lookahead > 0 && w+Time(g.lookahead) > w {
			horizon = w + Time(g.lookahead)
		}
		for i, e := range g.parts {
			cur = i
			e.runPhase(horizon)
		}
		cur = -1
	}
	for _, e := range g.parts {
		e.finishRun()
	}
}

// Shutdown tears down every partition (see Env.Shutdown).
func (g *Group) Shutdown() {
	if g.running {
		panic("sim: Shutdown during Group.Run")
	}
	for _, e := range g.parts {
		e.Shutdown()
	}
}
