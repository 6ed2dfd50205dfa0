package fault

import (
	"fmt"
	"io"
	"strings"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// A Point is one trial of a campaign, as data: where it sits in the
// sweep, its seed, the choices it makes in order (a fuzz seed's
// generated ops; none for a crash point, whose Cycle steps by index)
// and the fault plan installed on its environment. One engine runs the
// points of every kind of campaign — crash sweeps (Crash) and the
// oracle's fuzz profiles — through their check, replays, shrinks and
// reports them.
type Point[C any] struct {
	Index   int
	Seed    uint64
	Choices []C
	Plan    Plan
}

// An Outcome is what a check found at one point (R is its own type).
// Verdict says it as exactly as a replay of the point must reproduce
// it; FailedAt is the index of the choice it failed at, or -1.
type Outcome interface {
	Violation() bool
	Verdict() string
	FailedAt() int
}

// A Campaign is one sweep of points through a check.
type Campaign[C any, R Outcome] struct {
	// Points generates the sweep. It runs in one slot of the caller's
	// fan-out, so an environment it builds is bounded like the rest.
	Points func() ([]Point[C], error)
	// Check runs pt to completion on env, whose injector holds pt's
	// plan. An error is the harness's, not the stack's: the point is a
	// violation the shrinker never chases.
	Check func(env *sim.Env, pt Point[C]) (R, error)
	// Summary writes the kind's own report lines.
	Summary func(w io.Writer, rep *Report[C, R]) error
}

// A Finding is a point, its address and what its check found; a
// violating point carries the flight dump of its traced replay, headed
// by the finding's line.
type Finding[C any, R Outcome] struct {
	Point  Point[C]
	Addr   string // <row>/<index>: what replays the point alone
	Result R
	// Err is a harness failure: an error Check returned, a simulated
	// process that faulted, or a traced replay that did not reproduce
	// the run. It makes the point a violation that is never shrunk.
	Err    string
	Flight *obs.FlightDump
}

// Violation reports whether the point broke its check or its harness.
func (f *Finding[C, R]) Violation() bool { return f.Err != "" || f.Result.Violation() }

// Report is a campaign's byte-stable outcome.
type Report[C any, R Outcome] struct {
	Findings []Finding[C, R] // every point, in index order
	// Shrunk is the first violation that is no harness failure, shrunk
	// to a minimal point (nil when there is none).
	Shrunk  *Finding[C, R]
	summary func(io.Writer, *Report[C, R]) error
}

// maxShrinkReplays bounds the shrinker's trials per violation.
const maxShrinkReplays = 200

// Run generates the points of the sweep at address row ("crash/walseg"),
// runs every one, replays each violating point traced and shrinks the
// first violation that is no harness failure. Every environment — point generation, each point and its
// replay, the shrinker's trials — runs inside parallelFor (which must
// call fn(i) exactly once for each 0 <= i < n, in any order or
// concurrency), so the caller's fan-out bounds them all. Results land
// in index order, so the report is byte-identical however parallelFor
// schedules the points.
func (c *Campaign[C, R]) Run(parallelFor func(n int, fn func(i int)), row string) (*Report[C, R], error) {
	pts, err := c.generate(parallelFor)
	if err != nil {
		return nil, err
	}
	rep := &Report[C, R]{Findings: make([]Finding[C, R], len(pts)), summary: c.Summary}
	parallelFor(len(pts), func(i int) { rep.Findings[i] = c.find(row, pts[i]) })
	for _, f := range rep.Findings {
		if f.Violation() && f.Err == "" {
			parallelFor(1, func(int) {
				s := c.Shrink(f)
				s.Addr = f.Addr
				s.replay(c)
				rep.Shrunk = &s
			})
			break
		}
	}
	return rep, nil
}

// RunPoint generates the points of the sweep at address row and runs
// point i alone, as Run runs it: the same finding, flight dump
// included, that Run's report holds at index i. Every environment it
// builds runs inside parallelFor.
func (c *Campaign[C, R]) RunPoint(parallelFor func(n int, fn func(i int)), row string, i int) (Finding[C, R], error) {
	var f Finding[C, R]
	pts, err := c.generate(parallelFor)
	if err == nil && (i < 0 || i >= len(pts)) {
		err = fmt.Errorf("fault: point %d of a sweep of %d", i, len(pts))
	}
	if err != nil {
		return f, err
	}
	parallelFor(1, func(int) { f = c.find(row, pts[i]) })
	return f, nil
}

// generate runs Points in one slot of parallelFor.
func (c *Campaign[C, R]) generate(parallelFor func(n int, fn func(i int))) (pts []Point[C], err error) {
	parallelFor(1, func(int) { pts, err = c.Points() })
	return pts, err
}

// find runs pt, of the sweep at address row, untraced and, when it
// violates, replays it traced for its flight dump.
func (c *Campaign[C, R]) find(row string, pt Point[C]) Finding[C, R] {
	f := c.Trial(pt, false)
	if f.Addr = fmt.Sprintf("%s/%d", row, pt.Index); f.Violation() {
		f.replay(c)
	}
	return f
}

// replay replays f's violating point traced and heads the flight dump
// with f's line: the address that replays it, and what it found. The
// simulator is deterministic, so the replay must reach f's verdict; one
// that does not is a harness failure, kept without a dump.
func (f *Finding[C, R]) replay(c *Campaign[C, R]) {
	again := c.Trial(f.Point, true)
	if again.verdict() != f.verdict() {
		f.Err = fmt.Sprintf("nondeterministic: the traced replay gave %s; the first run %s", again.verdict(), f.verdict())
		return
	}
	f.Result, f.Flight = again.Result, again.Flight
	f.Flight.Reason = f.describe()
}

// Trial runs pt once on a fresh environment and returns its finding,
// unaddressed. Traced, it records spans, and a violation comes back
// with the run's flight dump, whose header the finding writes. Safe to
// call concurrently.
func (c *Campaign[C, R]) Trial(pt Point[C], traced bool) Finding[C, R] {
	env := sim.NewEnv()
	defer env.Shutdown() // after the flight dump; parked daemons would pin the drive
	Install(env, pt.Plan)
	set := obs.Of(env)
	if traced {
		set.EnableTracing()
	}
	f := Finding[C, R]{Point: pt}
	f.Result, f.Err = c.check(env, pt)
	if traced && f.Violation() {
		d := set.FlightDump("")
		f.Flight = &d
	}
	return f
}

// check runs Check and returns its outcome and harness failure. A
// simulated process that faults — a stack bug, which the kernel panics
// out of Run as "sim: process … faulted" — is pt's harness failure
// naming the fault, so the rest of the sweep runs and the report lists
// the point. Any other panic is the harness's own.
func (c *Campaign[C, R]) check(env *sim.Env, pt Point[C]) (r R, why string) {
	defer func() {
		if v := recover(); v != nil {
			msg, ok := v.(string)
			if !ok || !strings.Contains(msg, "sim: process ") || !strings.Contains(msg, " faulted: ") {
				panic(v)
			}
			why = msg
		}
	}()
	r, err := c.Check(env, pt)
	if err != nil {
		why = err.Error()
	}
	return r, why
}

// Shrink reduces the violating finding f to a minimal point that still
// violates. First it ddmins the choice list: truncate at the failing
// choice, bisect the shortest failing prefix, then remove ever smaller
// chunks. Then it bisects each trigger's threshold toward the smallest
// that still fails. Every probe is an untraced trial of the point with
// fewer choices or a lower threshold and the rest of its plan as is, so
// the fault schedule is the same and the search deterministic; a probe
// that fails its harness does not count. After maxShrinkReplays trials
// it stops and returns the finding of the smallest failing point found.
func (c *Campaign[C, R]) Shrink(f Finding[C, R]) Finding[C, R] {
	replays := 0
	fails := func(cand Point[C]) bool {
		if replays >= maxShrinkReplays {
			return false
		}
		replays++
		if got := c.Trial(cand, false); got.Violation() && got.Err == "" {
			f = got
			return true
		}
		return false
	}
	try := func(choices []C) bool {
		cand := f.Point
		cand.Choices = choices
		return fails(cand)
	}
	// cut is the failing choice list truncated after the choice it failed
	// at: the choices after it never ran.
	cut := func(ops []C) []C {
		if at := f.Result.FailedAt(); at >= 0 && at+1 < len(ops) {
			return ops[:at+1]
		}
		return ops
	}
	ops := cut(f.Point.Choices)
	// A shorter prefix can pass even though a longer one fails (the
	// failure may need earlier state), so keep the best confirmed length.
	for lo, hi := 1, len(ops); lo < hi; {
		mid := (lo + hi) / 2
		if try(ops[:mid]) {
			ops = cut(ops[:mid])
			hi = min(mid, len(ops))
		} else {
			lo = mid + 1
		}
	}
	for chunk := len(ops) / 2; chunk >= 1 && replays < maxShrinkReplays; {
		removed := false
		for start := 0; start+chunk <= len(ops); {
			cand := append(append(make([]C, 0, len(ops)-chunk), ops[:start]...), ops[start+chunk:]...)
			if len(cand) > 0 && try(cand) {
				ops, removed = cand, true // the next chunk slid into place
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		} else {
			chunk = min(chunk, len(ops))
		}
	}
	f.Point.Choices = ops
	for k := range f.Point.Plan.triggers() {
		t := *f.Point.Plan.triggers()[k]
		for lo, hi := uint64(1), max(t.N, uint64(t.At)); lo < hi; {
			mid, cand := lo+(hi-lo)/2, f.Point
			if tr := cand.Plan.triggers()[k]; t.N > 0 {
				tr.N = mid
			} else {
				tr.At = sim.Time(mid)
			}
			if fails(cand) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	return f
}

// Violations returns the violating findings, in index order.
func (r *Report[C, R]) Violations() []Finding[C, R] {
	var out []Finding[C, R]
	for _, f := range r.Findings {
		if f.Violation() {
			out = append(out, f)
		}
	}
	return out
}

// WriteText renders the deterministic report of the sweep: the kind's
// summary, one line per violation, then the minimal point with its
// choices and its flight dump — or, when nothing was shrunk, the first
// violation's dump.
func (r *Report[C, R]) WriteText(w io.Writer) error {
	if err := r.summary(w, r); err != nil {
		return err
	}
	viol := r.Violations()
	for i := range viol {
		fmt.Fprintf(w, "  VIOLATION %s\n", viol[i].describe())
	}
	var dump *obs.FlightDump
	if len(viol) > 0 {
		dump = viol[0].Flight
	}
	if s := r.Shrunk; s != nil {
		fmt.Fprintf(w, "  minimal failing %s\n", s.describe())
		for i, op := range s.Point.Choices {
			fmt.Fprintf(w, "    op %2d: %v\n", i, op)
		}
		dump = s.Flight
	}
	if dump == nil {
		return nil
	}
	return dump.WriteText(w)
}

// WriteText renders the finding as a point run alone prints it: its
// line, then the flight dump of a violating point.
func (f *Finding[C, R]) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, f.describe()); err != nil || f.Flight == nil {
		return err
	}
	return f.Flight.WriteText(w)
}

// describe names a finding's point — its address, its seed and each
// armed trigger — and what its check found.
func (f *Finding[C, R]) describe() string {
	s := fmt.Sprintf("%s seed %#x", f.Addr, f.Point.Seed)
	for _, t := range f.Point.Plan.triggers() {
		if *t != (Trigger{}) {
			s += " trigger " + t.String()
		}
	}
	return s + ": " + f.verdict()
}

// verdict is what the finding's check found, then its harness failure.
func (f *Finding[C, R]) verdict() string {
	if f.Err == "" {
		return f.Result.Verdict()
	}
	return fmt.Sprintf("%s err=%q", f.Result.Verdict(), f.Err)
}
