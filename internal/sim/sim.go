// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every latency in the repository — NAND array operations, PCIe
// transactions, firmware work, database CPU costs — is expressed in
// virtual nanoseconds on a sim.Env. Processes (Proc) are coroutines that
// cooperate with the scheduler: exactly one process runs at a time, so
// simulation state needs no locking and every run is exactly
// reproducible on any machine.
//
// The kernel offers the three primitives the device and database models
// are built from:
//
//   - Proc.Sleep: advance virtual time for this process.
//   - Resource:   a counted resource with a FIFO wait queue (dies,
//     channels, mutexes are Resources of capacity 1..n).
//   - Signal:     a condition processes can park on (wake all, or the
//     longest waiter), or park on until a predicate holds (WaitUntil).
//
// # Hot path
//
// The kernel is the simulator's wall-clock bottleneck, so its event loop
// is built around three optimizations that change nothing about the
// virtual-time semantics (events still execute in strict (at, seq)
// order, FIFO among simultaneous events):
//
//   - Coroutine handoff: every process is a coroutine (iter.Pull), and
//     the goroutine that called Run is one dispatch loop resuming them.
//     A parking process pops the next event itself and names its owner
//     to the loop, so a switch between processes is two coroutine
//     switches on one thread — no channel, no scheduler wake-up, no
//     second CPU. When the next event belongs to the parking process
//     itself (a lone process sleeping in a loop, the common case in
//     latency sweeps), there is no switch at all.
//   - Split event queue: events for the current instant go to a FIFO
//     ready ring (O(1) push/pop); only events in the future enter a
//     value-typed 4-ary min-heap. Neither path boxes events into
//     interface{} the way container/heap does, so steady-state
//     scheduling does not allocate.
//   - Herds re-checked in place: a Fire schedules the signal's waiters
//     as one ready-ring entry, and the kernel evaluates the condition of
//     each one waiting in WaitUntil at its turn. A process whose
//     condition fails goes back onto the signal without being resumed,
//     so it costs neither a coroutine switch nor an event.
//   - Allocation-free parking: Resource/Signal wait labels are
//     precomputed, the blocked-process set is an index-linked slice
//     rather than a map, and FIFO queues reclaim their heads with a
//     cursor instead of re-slicing (which would pin the backing array).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is an absolute virtual timestamp in nanoseconds.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	proc *Proc
}

// slot is a ready-ring entry: a process to resume, or a herd (exactly
// one of the two). Ring entries all belong to the current instant and
// run in ring order, so they carry neither a time nor a sequence number.
type slot struct {
	proc *Proc
	herd *herd
}

// eventLess orders events by (at, seq): time first, FIFO among
// simultaneous events.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// kernel is the scheduling state of one simulation: a virtual clock, an
// event queue and the processes it dispatches. A standalone Env has a
// kernel of its own; the members of a Group share one (partition.go).
type kernel struct {
	now Time
	seq uint64

	// heap holds pending events scheduled past the current instant: a
	// value-typed 4-ary min-heap on (at, seq). ring holds events for the
	// current instant in FIFO order (they are necessarily newer than any
	// same-instant event still in the heap, which was scheduled before
	// the clock reached this instant).
	heap     []event
	ring     []slot
	ringHead int

	// herds holds exhausted herds for reuse by the next Fire.
	herds []*herd

	// hand is the process the dispatch loop resumes next: a process
	// about to give up control pops the next event and leaves its owner
	// here (nil when the queue is empty). fault is a body's panic,
	// recovered in its coroutine and re-panicked by the loop.
	hand      *Proc
	fault     interface{}
	faultProc *Proc

	// blocked tracks processes parked on a Resource, Signal or Link (no
	// scheduled event); used for deadlock diagnosis. Each Proc remembers
	// its own index for O(1) swap-removal.
	blocked []*Proc

	running bool
	dead    bool // Shutdown ran; the kernel is unusable

	// free holds exited processes whose coroutines are suspended for
	// reuse: spawning is allocation-free in steady state because a
	// recycled Proc brings its coroutine and its stack along.
	free []*Proc
}

// Env is a simulation environment: one device's view of a kernel.
// Create one with NewEnv, start processes with Go, then call Run.
type Env struct {
	k *kernel

	// now is the time of this environment's last event, nevents their
	// count. For a standalone Env now is the kernel's clock.
	now        Time
	nevents    uint64
	attachment interface{}

	// Partition membership (nil/-1 for a standalone environment).
	grp *Group
	pid int

	// Clock-tick hook: when set, tickFn runs from the event loop the
	// first time this environment's clock reaches or passes tickAt
	// (before the event's process resumes). The observability sampler
	// hangs here — a sleeping daemon process could not drive it, because
	// a pending wakeup event would keep Run from ever draining the queue.
	tickAt Time
	tickFn func(now Time) Time

	// Run-end hooks fire each time Run returns normally (queue drained,
	// no fault); the sampler uses one to flush a final partial window.
	runEnd []func()

	// Shutdown hooks fire once, when Shutdown has unwound the processes.
	onShutdown []func()
}

// SetAttachment stores an opaque value on the environment (used by the
// observability layer). It replaces any previous attachment.
func (e *Env) SetAttachment(v interface{}) { e.attachment = v }

// Attachment returns the value stored with SetAttachment, or nil.
// The attachment is an opaque per-environment slot for the
// observability layer (internal/obs hangs its metrics registry and span
// tracer here); sim itself never inspects it. Keeping the hook on Env
// lets every component reach the same registry through the env it was
// constructed with, with no globals and no locking — the kernel is
// single-threaded by construction.
func (e *Env) Attachment() interface{} { return e.attachment }

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env {
	return &Env{k: &kernel{}, pid: -1}
}

// SetTick installs (or replaces) the clock-tick hook: fn runs inside
// the event loop the first time the environment's clock reaches or
// passes at, and returns the next tick time (return a value <= the
// current time to stop ticking). The hook observes simulation state
// between events — it runs after the clock advances but before the
// dispatched process resumes — and must not call Proc methods, schedule
// events, or otherwise re-enter the kernel. One hook per environment;
// the observability sampler owns it in practice.
func (e *Env) SetTick(at Time, fn func(now Time) Time) {
	e.tickAt, e.tickFn = at, fn
}

// OnRunEnd registers fn to run each time Run returns normally (event
// queue drained, no process fault). Hooks run in registration order in
// Run's caller, when no process is executing — safe for publishing
// final observability state.
func (e *Env) OnRunEnd(fn func()) { e.runEnd = append(e.runEnd, fn) }

// OnShutdown registers fn to run once when Shutdown tears the
// environment down, after every process is unwound, in registration
// order. The observability layer freezes its sampled gauges there, so
// a report read later no longer needs — or keeps alive — the model.
func (e *Env) OnShutdown(fn func()) { e.onShutdown = append(e.onShutdown, fn) }

// Now returns the current virtual time: the time of the environment's
// latest event (a Group member's clock trails the group's while others
// run).
func (e *Env) Now() Time { return e.now }

// Events reports the number of events the environment has dispatched
// so far: resumes of a process. A WaitUntil condition the kernel
// re-checked and found false resumes nothing and is not counted. The
// wall-clock benchmark harness (bench2b -benchjson) divides this by
// real elapsed time for an events/sec figure of merit.
func (e *Env) Events() uint64 { return e.nevents }

// Proc is a simulation process: a coroutine that Run's dispatch loop
// resumes at each of its events, and that runs until it parks again. A
// Proc must only be used from its own body function.
type Proc struct {
	env    *Env
	name   string
	daemon bool

	// resume switches into the coroutine until it parks or finishes a
	// body; stop unwinds it (Shutdown). yield is the coroutine's side of
	// resume: it returns false once stop was called.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// body is the function the next resume starts (pooled coroutines
	// run one body after another); killed marks a process Shutdown is
	// unwinding. ibody/idx are the indexed variant (GoIdx): fan-out
	// loops share one closure instead of allocating one per spawn.
	body   func(*Proc)
	ibody  func(*Proc, int)
	idx    int
	killed bool

	// Deadlock-diagnosis state while parked on a Resource or Signal.
	blockedOn string
	blockIdx  int

	// cond and carg are the condition of a WaitUntil in progress (cond
	// is nil in a plain Wait), which a herd re-checks for the process.
	cond Cond
	carg int64
}

// killedSentinel is the panic value park throws when Shutdown unwinds a
// parked process; run recognizes it and the coroutine ends.
type killedSentinel struct{}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Go starts a new process. The body runs when the scheduler first
// reaches it; the initial resume is scheduled at the current time.
// Go may be called before Run or from inside a running process.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.k.now, name, body)
}

// GoDaemon starts a background service process. A daemon parked on a
// Resource or Signal does not count as a deadlock: Run returns normally
// when only daemons remain blocked (e.g. an idle device write-buffer
// drainer waiting for work).
func (e *Env) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := e.Go(name, body)
	p.daemon = true
	return p
}

// GoAt is like Go but delays the process start until t. Exited
// processes are recycled: a spawn normally reuses a pooled Proc and its
// suspended coroutine, so steady-state spawning does not allocate.
func (e *Env) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	p := e.spawn(name)
	p.body = body
	e.k.schedule(p, max(t, e.k.now))
	return p
}

// GoIdx starts a process at the current instant whose body receives
// idx. Fan-out loops (one worker per page of a large command) spawn N
// workers from one shared closure — no per-spawn closure allocation.
func (e *Env) GoIdx(name string, idx int, body func(p *Proc, idx int)) *Proc {
	p := e.spawn(name)
	p.ibody, p.idx = body, idx
	e.k.schedule(p, e.k.now)
	return p
}

// spawn takes a process from the kernel's free pool — a Group member
// may reuse one another member recycled — or makes one with a fresh
// coroutine, and gives it to e.
func (e *Env) spawn(name string) *Proc {
	k := e.k
	if k.dead {
		panic("sim: Go on a shut-down environment")
	}
	var p *Proc
	if n := len(k.free); n > 0 {
		p = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		p.env, p.daemon = e, false
	} else {
		p = e.newProc()
	}
	p.name = name
	return p
}

// main is the coroutine of every process: run one body per resume
// until a body faults or Shutdown stops the coroutine.
func (p *Proc) main(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() && yield(struct{}{}) {
	}
}

// run runs the body the current resume starts. On a clean return the
// Proc goes back to the free pool and pops the next event for the
// dispatch loop; on a panic it records the fault for Run to re-panic.
// It reports whether the coroutine may run another body. When the body
// calls runtime.Goexit (t.Fatal in a test), run never returns: the
// Proc is not recycled, and the Goexit unwinds Run's caller.
func (p *Proc) run() (clean bool) {
	k := p.env.k
	body, ibody, idx := p.body, p.ibody, p.idx
	p.body, p.ibody = nil, nil
	defer func() {
		if clean {
			return
		}
		r := recover()
		if _, k := r.(killedSentinel); k {
			return // Shutdown unwound this process while it was parked
		}
		if r != nil {
			k.fault = r
			k.faultProc = p
		}
	}()
	if ibody != nil {
		ibody(p, idx)
	} else {
		body(p)
	}
	// Recycle before dispatching, so a successor body spawned by the
	// next event can already reuse this process.
	k.free = append(k.free, p)
	k.hand = k.next()
	return true
}

func (k *kernel) schedule(p *Proc, at Time) {
	if at == k.now {
		k.ring = append(k.ring, slot{proc: p})
		return
	}
	k.seq++
	k.heapPush(event{at: at, seq: k.seq, proc: p})
}

// next pops the earliest pending event in (at, seq) order, advances the
// clock to it, and returns its process, or nil when none is left. Ring
// events always carry the current instant; a heap event at the current
// instant predates every ring event (it was scheduled before the clock
// got here), so it wins the tie. The process's environment takes the
// event: its clock, its event count and its tick hook.
//
// A herd entry yields the first member it dispatches (herd.next) and
// keeps its place at the ring's head while members remain, so the rest
// of the herd is walked before any later same-instant event, exactly
// where their own ring events would have run.
func (k *kernel) next() *Proc {
	for {
		var p *Proc
		switch {
		case k.ringHead < len(k.ring) && (len(k.heap) == 0 || k.heap[0].at > k.now):
			s := &k.ring[k.ringHead]
			if h := s.herd; h != nil {
				p = h.next(k.now)
				if h.head < len(h.ps) {
					break // the herd keeps its place at the head
				}
				k.putHerd(h)
			} else {
				p = s.proc
			}
			*s = slot{}
			k.ringHead++
			if k.ringHead == len(k.ring) {
				k.ring = k.ring[:0]
				k.ringHead = 0
			}
			if p == nil {
				continue // every member of the herd parked again
			}
		case len(k.heap) > 0:
			ev := k.heapPop()
			if ev.at < k.now {
				panic("sim: time went backwards")
			}
			k.now = ev.at
			p = ev.proc
		default:
			return nil
		}
		e := p.env
		e.now = k.now
		e.nevents++
		e.tick()
		return p
	}
}

// tick runs the clock-tick hook if the environment's clock reached it.
// It stays small enough to inline into the dispatch path, where the
// common case is no hook.
func (e *Env) tick() {
	if e.tickFn != nil && e.now >= e.tickAt {
		e.runTick()
	}
}

//go:noinline
func (e *Env) runTick() {
	next := e.tickFn(e.now)
	if next <= e.now {
		e.tickFn = nil
	}
	e.tickAt = next
}

// heapPush inserts into the 4-ary min-heap (sift up).
func (k *kernel) heapPush(ev event) {
	h := append(k.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.heap = h
}

// heapPop removes the minimum from the 4-ary min-heap (sift down).
func (k *kernel) heapPop() event {
	h := k.heap
	top := h[0]
	last := h[len(h)-1]
	h[len(h)-1].proc = nil
	h = h[:len(h)-1]
	if len(h) > 0 {
		i := 0
		for {
			c0 := i*4 + 1
			if c0 >= len(h) {
				break
			}
			m := c0
			cEnd := c0 + 4
			if cEnd > len(h) {
				cEnd = len(h)
			}
			for c := c0 + 1; c < cEnd; c++ {
				if eventLess(h[c], h[m]) {
					m = c
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	k.heap = h
	return top
}

// Run executes events until the queue drains and all processes have
// exited or are blocked forever. It panics (with a diagnostic listing)
// if live processes remain blocked with no pending events — a deadlock
// in the modeled system.
func (e *Env) Run() {
	if e.grp != nil {
		panic("sim: Run on a partition member; use Group.Run")
	}
	e.k.run()
	e.endRun()
}

// endRun runs the run-end hooks, in registration order.
func (e *Env) endRun() {
	for _, fn := range e.runEnd {
		fn()
	}
}

// run is the dispatch loop of Env.Run and Group.Run: each resume runs
// one process until it parks or exits, having left the owner of the
// next event in k.hand. Once the queue drains it checks for a deadlock.
// A process fault or a deadlock is panicked here, in Run's caller.
func (k *kernel) run() {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	if k.dead {
		panic("sim: Run on a shut-down environment")
	}
	k.running = true
	defer func() { k.running = false }()
	for np := k.next(); np != nil; np = k.hand {
		k.hand = nil
		np.resume()
		if k.fault != nil {
			f, fp := k.fault, k.faultProc
			k.fault, k.faultProc = nil, nil
			panic(fmt.Sprintf("%ssim: process %q faulted: %v", fp.env.where(), fp.name, f))
		}
	}
	k.checkDeadlock()
}

// checkDeadlock panics if a process that is not a daemon is blocked
// with no event left to wake it, listing the blocked processes of its
// environment (the lowest-indexed stuck one in a Group).
func (k *kernel) checkDeadlock() {
	var stuck *Env
	for _, p := range k.blocked {
		if !p.daemon && (stuck == nil || p.env.pid < stuck.pid) {
			stuck = p.env
		}
	}
	if stuck == nil {
		return
	}
	var names []string
	for _, p := range k.blocked {
		if p.env == stuck {
			names = append(names, p.name+" ("+p.blockedOn+")")
		}
	}
	sort.Strings(names)
	panic(stuck.where() + "sim: deadlock, blocked processes: " + strings.Join(names, ", "))
}

// where prefixes a kernel panic about e's processes: a Group member
// names its partition.
func (e *Env) where() string {
	if e.grp == nil {
		return ""
	}
	return fmt.Sprintf("sim: partition %d (%s): ", e.pid, e.grp.names[e.pid])
}

// Shutdown tears the environment down: every process — parked, pooled,
// or still holding a pending event — is unwound (parked bodies see a
// killedSentinel panic through park; deferred cleanup runs) and its
// coroutine ended, then the backing arrays are released. A spiky
// experiment thus stops pinning peak memory once its results are read.
// The environment is unusable afterwards; Shutdown is idempotent. On a
// Group member it tears the whole group's kernel down. The shutdown
// hooks (OnShutdown) run last.
func (e *Env) Shutdown() {
	if e.k.running {
		panic("sim: Shutdown from inside Run")
	}
	e.tickFn = nil
	e.runEnd = nil
	e.k.shutdown()
	hooks := e.onShutdown
	e.onShutdown = nil
	for _, fn := range hooks {
		fn()
	}
}

func (k *kernel) shutdown() {
	if k.dead {
		return
	}
	k.dead = true
	// Unwinding a process runs its defers, which may Release resources
	// or Fire signals and thereby schedule events or grow k.blocked —
	// both are re-scanned until everything is down.
	kill := func(p *Proc) {
		if p == nil || p.killed {
			return
		}
		p.killed = true
		p.stop() // returns once the coroutine has ended
	}
	for len(k.blocked) > 0 || k.ringHead < len(k.ring) || len(k.heap) > 0 {
		for i := 0; i < len(k.blocked); i++ {
			kill(k.blocked[i])
		}
		k.blocked = k.blocked[:0]
		for k.ringHead < len(k.ring) {
			p := k.ring[k.ringHead].proc
			k.ringHead++
			kill(p)
		}
		k.ring, k.ringHead = nil, 0
		for len(k.heap) > 0 {
			kill(k.heapPop().proc)
		}
	}
	for _, p := range k.free {
		kill(p)
	}
	k.free = nil
	k.heap = nil
	k.ring = nil
	k.herds = nil
	k.blocked = nil
}

// park gives up control until this process's next event. The parking
// process pops the next event itself: either it is its own (continue
// inline, no switch), or it belongs to another process, which it leaves
// to the dispatch loop in k.hand, or the queue is empty (hand is nil
// and Run's loop ends). A false from yield means Shutdown is unwinding
// the process.
func (p *Proc) park() {
	k := p.env.k
	if p.killed {
		// A deferred call of a process Shutdown is unwinding parked
		// again; do not dispatch further events.
		panic(killedSentinel{})
	}
	np := k.next()
	if np == p {
		return
	}
	k.hand = np
	if !p.yield(struct{}{}) {
		panic(killedSentinel{})
	}
}

// Sleep advances this process by d virtual nanoseconds. Negative
// durations sleep zero time (still yielding to simultaneous events).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	k := p.env.k
	k.schedule(p, k.now+Time(d))
	p.park()
}

// block parks the process with no scheduled event; some other process
// must unblock it. what describes the wait for deadlock diagnostics
// (callers pass a precomputed label so parking does not allocate).
func (p *Proc) block(what string) {
	k := p.env.k
	k.enterBlocked(p, what)
	p.park()
	k.leaveBlocked(p)
}

func (k *kernel) enterBlocked(p *Proc, what string) {
	p.blockedOn = what
	p.blockIdx = len(k.blocked)
	k.blocked = append(k.blocked, p)
}

func (k *kernel) leaveBlocked(p *Proc) {
	last := len(k.blocked) - 1
	moved := k.blocked[last]
	k.blocked[p.blockIdx] = moved
	moved.blockIdx = p.blockIdx
	k.blocked[last] = nil
	k.blocked = k.blocked[:last]
	p.blockedOn = ""
}

// unblock schedules a blocked process to resume at the current instant.
func (e *Env) unblock(p *Proc) { e.k.schedule(p, e.k.now) }

// Resource is a counted resource with a FIFO wait queue. A Resource of
// capacity 1 is a virtual mutex; a NAND die or a PCIe link is a
// Resource of capacity 1 whose hold duration is the service time.
type Resource struct {
	env     *Env
	name    string
	label   string // "resource <name>", precomputed for allocation-free parking
	cap     int
	inUse   int
	waiters []*Proc
	whead   int

	// Occupancy, for Busy.
	busyTotal Duration
	lastBusy  Time
}

// NewResource creates a resource with the given capacity (≥ 1).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, label: "resource " + name, cap: capacity}
}

// NewResources creates len(names) resources of equal capacity in one
// backing allocation — construction relief for per-die lock arrays,
// which otherwise dominate the alloc profile of short-lived
// environments. Elements must not be copied once in use.
func (e *Env) NewResources(names []string, capacity int) []Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	rs := make([]Resource, len(names))
	for i, nm := range names {
		rs[i] = Resource{env: e, name: nm, label: "resource " + nm, cap: capacity}
	}
	return rs
}

// Acquire obtains one unit, waiting FIFO if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.whead == len(r.waiters) {
		r.grab()
		return
	}
	r.waiters = append(r.waiters, p)
	p.block(r.label) // Release reserved our unit for us before unblocking
}

func (r *Resource) grab() {
	if r.inUse == 0 {
		r.lastBusy = r.env.now
	}
	r.inUse++
}

// TryAcquire obtains a unit only if one is immediately free.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && r.whead == len(r.waiters) {
		r.grab()
		return true
	}
	return false
}

// Release returns one unit and wakes the head waiter, if any. The unit
// is handed directly to the waiter so FIFO order is preserved even
// against late TryAcquire callers.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if r.whead < len(r.waiters) {
		// Hand off: usage count stays the same, ownership moves.
		w := r.waiters[r.whead]
		r.waiters[r.whead] = nil
		r.whead++
		if r.whead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.whead = 0
		}
		r.env.unblock(w)
		return
	}
	r.inUse--
	if r.inUse == 0 {
		r.busyTotal += Duration(r.env.now - r.lastBusy)
	}
}

// Use holds one unit for d virtual time: Acquire, Sleep, Release.
// It returns the total time including queueing delay.
func (r *Resource) Use(p *Proc, d Duration) Duration {
	start := r.env.now
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
	return Duration(r.env.now - start)
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

// Busy reports the cumulative time the resource has been non-idle,
// including a still-open busy period — the numerator of an occupancy
// gauge sampled mid-run.
func (r *Resource) Busy() Duration {
	b := r.busyTotal
	if r.inUse > 0 {
		b += Duration(r.env.now - r.lastBusy)
	}
	return b
}

// Signal is a condition processes park on. Fire wakes every current
// waiter at the current instant (broadcast); FireOne wakes only the
// longest-waiting one — the wake-up for a pool of interchangeable
// workers, where a broadcast resumes all of them for one item of work.
// A Signal may be fired repeatedly; waiters registered after a Fire wait
// for the next one.
type Signal struct {
	env     *Env
	name    string
	label   string  // "signal <name>", precomputed for allocation-free parking
	waiters []*Proc // FIFO; waiters[:whead] were woken by FireOne
	whead   int
	fires   uint64
}

// Cond is a condition a process waits for with Signal.WaitUntil. Holds
// reports whether it holds for the waiter's own datum arg. It must only
// read model state: it must not yield, schedule events or allocate, and
// it must not depend on who evaluates it — the kernel re-checks it on
// the waiter's behalf. A pointer to the state it reads makes a Cond
// without a per-wait allocation.
type Cond interface {
	Holds(arg int64) bool
}

// herd is the waiters one Fire woke, in FIFO order, scheduled as one
// ready-ring entry: ps[head:] have not had their turn yet.
type herd struct {
	sig  *Signal
	ps   []*Proc
	head int
}

// next walks the herd from its next member and returns the first one to
// dispatch — a plain waiter, or one whose condition holds — or nil once
// every member has had its turn. Each member takes the instant as its
// dispatch would have: the clock and the tick hook. A member whose
// condition fails takes the path its own re-Wait would have taken, back
// onto the signal, at its turn; it is not resumed and not counted.
func (h *herd) next(now Time) *Proc {
	for h.head < len(h.ps) {
		p := h.ps[h.head]
		h.ps[h.head] = nil
		h.head++
		if p.cond == nil || p.cond.Holds(p.carg) {
			return p
		}
		e := p.env
		e.now = now
		e.tick()
		e.k.leaveBlocked(p)
		h.sig.enqueue(p)
		e.k.enterBlocked(p, h.sig.label)
	}
	return nil
}

// putHerd recycles an exhausted herd.
func (k *kernel) putHerd(h *herd) {
	h.sig, h.ps, h.head = nil, h.ps[:0], 0
	k.herds = append(k.herds, h)
}

// NewSignal creates a named signal.
func (e *Env) NewSignal(name string) *Signal {
	return &Signal{env: e, name: name, label: "signal " + name}
}

// Wait parks until the next Fire, or until a FireOne reaches this
// process at the head of the queue.
func (s *Signal) Wait(p *Proc) {
	s.enqueue(p)
	p.block(s.label)
}

// WaitUntil parks until c.Holds(arg). It behaves exactly as
//
//	for !c.Holds(arg) { s.Wait(p) }
//
// — same results, same virtual time, same order of every effectful
// event — except that a Fire does not resume the process to re-check:
// the kernel evaluates the condition at the process's turn, and if it
// fails puts the process back on the signal, as its own Wait would
// have, without a coroutine switch or an event.
func (s *Signal) WaitUntil(p *Proc, c Cond, arg int64) {
	for !c.Holds(arg) {
		p.cond, p.carg = c, arg
		s.Wait(p)
	}
	p.cond = nil
}

// enqueue appends p to the waiters: the path of a Wait, and of a herd
// member whose re-check failed.
func (s *Signal) enqueue(p *Proc) {
	if n := len(s.waiters); n == cap(s.waiters) && s.whead > 0 && s.whead >= n/2 {
		// Reclaim the prefix FireOne consumed instead of growing: a pool
		// that never fully drains keeps one bounded array (at most twice
		// its parked processes, one copy per that many waits).
		n := copy(s.waiters, s.waiters[s.whead:])
		clear(s.waiters[n:])
		s.waiters, s.whead = s.waiters[:n], 0
	}
	s.waiters = append(s.waiters, p)
}

// Fire wakes all current waiters. It is safe to call with no waiters.
// The waiters become one herd in the ready ring, at the place the first
// one's wake-up would have taken.
func (s *Signal) Fire() {
	s.fires++
	if s.whead == len(s.waiters) {
		return
	}
	k := s.env.k
	var h *herd
	if n := len(k.herds); n > 0 {
		h = k.herds[n-1]
		k.herds[n-1] = nil
		k.herds = k.herds[:n-1]
	} else {
		h = new(herd)
	}
	h.sig = s
	h.ps = append(h.ps, s.waiters[s.whead:]...)
	clear(s.waiters)
	s.waiters, s.whead = s.waiters[:0], 0
	k.ring = append(k.ring, slot{herd: h})
}

// FireOne wakes the longest-waiting process, if any; the others keep
// their places. It counts as a fire either way.
func (s *Signal) FireOne() {
	s.fires++
	if s.whead == len(s.waiters) {
		return
	}
	w := s.waiters[s.whead]
	s.waiters[s.whead] = nil
	s.whead++
	if s.whead == len(s.waiters) {
		s.waiters, s.whead = s.waiters[:0], 0
	}
	s.env.unblock(w)
}

// Fires reports how many times the signal fired.
func (s *Signal) Fires() uint64 { return s.fires }

// Waiters reports the number of parked processes.
func (s *Signal) Waiters() int { return len(s.waiters) - s.whead }

// WaitGroup counts outstanding work across processes, like sync.WaitGroup
// but in virtual time.
type WaitGroup struct {
	env  *Env
	n    int
	done *Signal
}

// NewWaitGroup creates an empty wait group.
func (e *Env) NewWaitGroup(name string) *WaitGroup {
	return &WaitGroup{env: e, done: e.NewSignal(name + ".done")}
}

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.done.Fire()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.done.Wait(p)
	}
}
