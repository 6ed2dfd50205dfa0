// Partitioned simulations: a Group is several environments ("partitions",
// one per device) over one kernel — one clock, one event queue, one
// dispatch loop — so the whole group runs in a single (at, seq) order on
// the caller's goroutine, exactly like a standalone Env.
//
// What stays per environment is what describes one device: its
// attachment (the observability set), its tick and run-end hooks, its
// event count, and its clock reading, the time of its own last event.
// Partitions interact only through Links: a message is a timed wake of
// the receiver, scheduled into the shared queue at its arrival.
package sim

// Group is a set of environments sharing one kernel. Create members
// with NewEnv, connect them with NewLink, then call Run once all
// processes are started (Run on a member environment panics).
type Group struct {
	k     *kernel
	parts []*Env
	names []string
}

// NewGroup returns an empty partition group.
func NewGroup() *Group { return &Group{k: &kernel{}} }

// NewEnv adds a named partition and returns its environment, which
// runs on the group's kernel.
func (g *Group) NewEnv(name string) *Env {
	if g.k.running {
		panic("sim: NewEnv during Group.Run")
	}
	e := &Env{k: g.k, grp: g, pid: len(g.parts)}
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
// (> 0).
func NewLink[T any](g *Group, from, to *Env, name string, latency Duration) *Link[T] {
	if g.k.running {
		panic("sim: NewLink during Group.Run")
	}
	if from.grp != g || to.grp != g {
		panic("sim: link " + name + " endpoints must be partitions of the group")
	}
	if from == to {
		panic("sim: link " + name + " connects a partition to itself")
	}
	if latency <= 0 {
		panic("sim: link " + name + " latency must be positive (model zero-latency coupling inside one partition)")
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
		l.to.k.schedule(l.rx, m.at)
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

// Run executes the group's events to completion in one (at, seq) order
// — the dispatch loop of Env.Run — then runs each member's run-end
// hooks in partition order. A process fault or a deadlock surfaces as
// in Env.Run, prefixed with the partition's index and name.
func (g *Group) Run() {
	g.k.run()
	for _, e := range g.parts {
		e.endRun()
	}
}

// Shutdown tears down every partition (see Env.Shutdown).
func (g *Group) Shutdown() {
	for _, e := range g.parts {
		e.Shutdown()
	}
}
