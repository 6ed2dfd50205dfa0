package fault

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// A Cycle is one crash-recovery workload instance: the campaign builds
// a fresh one per crash point (on a fresh env with the point's
// Injector pre-installed), drives committed operations until the
// injector trips, then crashes, recovers and verifies.
//
// The committed-set accounting relies on Step being synchronous: when
// Step returns, operation i's commit has been acknowledged, so it
// happened strictly before the PowerLoss that Crash performs.
type Cycle interface {
	// Step performs the i-th committed operation and returns its key.
	Step(p *sim.Proc, i int) (key string, err error)
	// Stage appends one record *without* committing it — volatile
	// state the crash may or may not preserve. Returns "" when the
	// workload has no uncommitted path.
	Stage(p *sim.Proc) (key string, err error)
	// Crash cuts power (PowerLoss). persisted reports whether the
	// capacitor dump completed within budget; the energy it consumed is
	// the 2bssd.dump_energy_j gauge.
	Crash(p *sim.Proc) (persisted bool, err error)
	// Recover powers the device back on, reopens the engine, and
	// probes the full planned keyspace: recovered lists keys present
	// with exactly the written content; phantoms lists keys present
	// that were never appended, or whose content differs from any
	// appended value.
	Recover(p *sim.Proc) (recovered, phantoms []string, err error)
}

// Auditor is an optional Cycle extension for workloads whose stack can
// check its own invariants (an FTL's page map). After a successful
// Recover the campaign runs Audit; an error is a campaign violation,
// shrunk and dumped like any other durability break.
type Auditor interface {
	Audit() error
}

// Campaign sweeps crash points across one workload. Run first executes a fault-free profile run to learn the workload's
// duration and per-class event counts, then spreads Points triggers
// across virtual time and every active event class — so the sweep
// lands crashes mid-WC-burst, mid-flush, mid-program and between
// commits in proportion to where the workload actually spends events.
type Campaign struct {
	Name   string
	Points int
	Ops    int
	Seed   uint64
	// Build constructs the device stack and workload on env. The
	// campaign has already installed the point's Injector on env.
	Build func(env *sim.Env, p *sim.Proc) (Cycle, error)

	// Tweak optionally adjusts one point's fault plan before it is
	// installed (e.g. cutting the capacitor dump short on a subset of
	// points so recovery must repair torn tails). The plan arrives
	// with Seed and the PowerLoss trigger already set. Must be a pure
	// function of i so shrinking stays deterministic.
	Tweak func(i int, plan *Plan)

	specs   []Trigger
	profile struct {
		counts [numEvents]uint64
		dur    sim.Time
	}
}

// reportSeries are the registry counters the report totals over every
// point, each with its label on the report's faults line.
var reportSeries = [...]struct{ name, label string }{
	{"fault.trips", "trips"},
	{"fault.ecc_retries", "ecc-retries"},
	{"fault.uncorrectable_reads", "uncorrectable"},
	{"fault.program_fails", "program-fails"},
	{"fault.erase_fails", "erase-fails"},
	{"fault.cmd_timeouts", "timeouts"},
	{"wal.seg_torn_repairs", "torn-repairs"},
}

// PointResult is the deterministic outcome of one crash point.
type PointResult struct {
	Index     int
	Trigger   string // planned trigger
	TrippedBy string // "" when the workload finished before the trigger
	TrippedAt int64  // virtual ns of the trip (0 = ran to completion)

	Committed      int
	Recovered      int
	StagedSurvived bool
	Persisted      bool
	DumpEnergyJ    float64

	Lost    []string // committed keys missing after recovery (sorted)
	Phantom []string // recovered keys never appended / wrong content (sorted)
	Audit   string   // the stack's failed self-check after recovery ("" = passed)
	Err     string
	Series  [len(reportSeries)]uint64 // the point's reportSeries values

	// Flight is the flight dump of the point's traced replay, taken
	// only when the point violated the durability contract: the last
	// spans and instants leading up to the trigger, plus metrics at
	// failure.
	Flight *obs.FlightDump
}

// Violation reports whether the point breaks the durability contract:
// a committed record lost despite a persisted dump, any phantom
// record, a failed audit, or a harness error.
func (pr PointResult) Violation() bool {
	return (pr.Persisted && len(pr.Lost) > 0) || len(pr.Phantom) > 0 || pr.Audit != "" || pr.Err != ""
}

// Report is a campaign's aggregated, byte-stable outcome.
type Report struct {
	Name        string
	Seed        uint64
	Points, Ops int
	Results     []PointResult
	// Shrunk is the minimal failing crash point found by bisecting the
	// first violation's trigger threshold (nil when the campaign is
	// clean or every violation was a harness error).
	Shrunk *PointResult
}

// prepare runs the fault-free profile pass and derives the trigger for
// every point.
func (c *Campaign) prepare() error {
	if c.Points <= 0 || c.Ops <= 0 || c.Build == nil {
		return fmt.Errorf("fault: campaign %q needs Points, Ops and Build", c.Name)
	}
	env := sim.NewEnv()
	defer env.Shutdown() // its parked daemons would pin the drive
	in := Install(env, Plan{Seed: c.Seed})
	var perr error
	env.Go("fault.profile", func(p *sim.Proc) {
		cyc, err := c.Build(env, p)
		if err != nil {
			perr = fmt.Errorf("fault: profile build: %w", err)
			return
		}
		for k := 0; k < c.Ops; k++ {
			if _, err := cyc.Step(p, k); err != nil {
				perr = fmt.Errorf("fault: profile step %d: %w", k, err)
				return
			}
		}
	})
	env.Run()
	if perr != nil {
		return perr
	}
	for ev := Event(0); ev < numEvents; ev++ {
		c.profile.counts[ev] = in.Count(ev)
	}
	c.profile.dur = env.Now()

	// Active trigger classes: virtual time plus every event class the
	// profile run actually exercised.
	type class struct {
		ev   Event
		time bool
		max  uint64
	}
	classes := []class{{time: true, max: uint64(c.profile.dur)}}
	for ev := Event(0); ev < numEvents; ev++ {
		if c.profile.counts[ev] > 0 {
			classes = append(classes, class{ev: ev, max: c.profile.counts[ev]})
		}
	}
	perClass := (c.Points + len(classes) - 1) / len(classes)
	jit := sim.NewRand(c.Seed ^ 0x2B55D001)
	c.specs = make([]Trigger, c.Points)
	for i := range c.specs {
		cl := classes[i%len(classes)]
		j := i / len(classes)
		frac := (float64(j) + jit.Float()) / float64(perClass)
		if frac >= 1 {
			frac = 0.999999
		}
		n := 1 + uint64(frac*float64(cl.max))
		if n > cl.max {
			n = cl.max
		}
		if cl.time {
			c.specs[i] = Trigger{At: sim.Time(n)}
		} else {
			c.specs[i] = Trigger{On: cl.ev, N: n}
		}
	}
	return nil
}

// pointSeed decorrelates per-point randomness from the point order so
// results do not depend on scheduling.
func (c *Campaign) pointSeed(i int) uint64 {
	return c.Seed + uint64(i)*0x9E3779B97F4A7C15
}

// runTrial executes crash point i under trig on a fresh environment;
// traced, it records spans and returns the point's flight dump.
// Safe to call concurrently for distinct i once prepare has run.
func (c *Campaign) runTrial(i int, trig Trigger, traced bool) PointResult {
	pr := PointResult{Index: i, Trigger: trig.String()}
	env := sim.NewEnv()
	defer env.Shutdown() // after the flight dump; parked daemons would pin the drive
	plan := Plan{Seed: c.pointSeed(i), PowerLoss: trig}
	if c.Tweak != nil {
		c.Tweak(i, &plan)
	}
	in := Install(env, plan)
	set := obs.Of(env)
	if traced {
		set.EnableTracing()
	}
	reg := set.Registry()
	env.Go("fault.point", func(p *sim.Proc) {
		cyc, err := c.Build(env, p)
		if err != nil {
			pr.Err = fmt.Sprintf("build: %v", err)
			return
		}
		var committed []string
		for k := 0; k < c.Ops; k++ {
			if in.Tripped() {
				break
			}
			key, err := cyc.Step(p, k)
			if err != nil {
				pr.Err = fmt.Sprintf("step %d: %v", k, err)
				return
			}
			committed = append(committed, key)
		}
		why, at := in.TripInfo()
		pr.TrippedBy, pr.TrippedAt = why, int64(at)
		in.Disarm()
		staged, err := cyc.Stage(p)
		if err != nil {
			pr.Err = fmt.Sprintf("stage: %v", err)
			return
		}
		persisted, err := cyc.Crash(p)
		if err != nil {
			pr.Err = fmt.Sprintf("crash: %v", err)
			return
		}
		pr.Persisted, pr.DumpEnergyJ = persisted, reg.Gauge("2bssd.dump_energy_j").Value()
		recovered, phantoms, err := cyc.Recover(p)
		if err != nil {
			pr.Err = fmt.Sprintf("recover: %v", err)
			return
		}
		if a, ok := cyc.(Auditor); ok {
			if err := a.Audit(); err != nil {
				pr.Audit = err.Error()
			}
		}
		rec := make(map[string]bool, len(recovered))
		for _, k := range recovered {
			rec[k] = true
		}
		for _, k := range committed {
			if !rec[k] {
				pr.Lost = append(pr.Lost, k)
			}
		}
		pr.Committed, pr.Recovered = len(committed), len(recovered)
		pr.StagedSurvived = staged != "" && rec[staged]
		pr.Phantom = append(pr.Phantom, phantoms...)
		sort.Strings(pr.Lost)
		sort.Strings(pr.Phantom)
		for k, s := range reportSeries {
			pr.Series[k] = reg.CounterValue(s.name)
		}
	})
	env.Run()
	if traced {
		d := set.FlightDump(fmt.Sprintf("campaign %s point %d trigger %s: durability violation",
			c.Name, i, pr.Trigger))
		pr.Flight = &d
	}
	return pr
}

// replay re-runs a violating point under trig with tracing on and
// returns the replay, which carries the flight dump. The simulator is
// deterministic, so the replay must reproduce the point's outcome; one
// that does not is a determinism failure, returned in Err without a
// dump.
func (c *Campaign) replay(pr PointResult, trig Trigger) PointResult {
	again := c.runTrial(pr.Index, trig, true)
	if slices.Equal(again.Lost, pr.Lost) && slices.Equal(again.Phantom, pr.Phantom) &&
		again.Audit == pr.Audit && again.Err == pr.Err {
		return again
	}
	pr.Err = fmt.Sprintf("nondeterministic: the traced replay gave lost=%v phantom=%v audit=%q err=%q; the first run err=%q",
		again.Lost, again.Phantom, again.Audit, again.Err, pr.Err)
	return pr
}

// Run profiles the campaign, executes every point, and returns the
// aggregated report; every violating point is replayed for its flight
// dump, and the first one is shrunk to a minimal failing crash point.
// Every environment — the profile run, each point and its replay, the
// shrinker's trials — runs inside
// parallelFor (which must call fn(i) exactly once for each 0 <= i < n,
// in any order or concurrency), so the caller's fan-out bounds them
// all. Results land in index order, so the report is byte-identical
// regardless of how parallelFor schedules the points.
func (c *Campaign) Run(parallelFor func(n int, fn func(i int))) (*Report, error) {
	var err error
	parallelFor(1, func(int) { err = c.prepare() })
	if err != nil {
		return nil, err
	}
	results := make([]PointResult, len(c.specs))
	parallelFor(len(results), func(i int) {
		if results[i] = c.runTrial(i, c.specs[i], false); results[i].Violation() {
			results[i] = c.replay(results[i], c.specs[i])
		}
	})
	r := &Report{Name: c.Name, Seed: c.Seed, Points: c.Points, Ops: c.Ops, Results: results}
	for _, pr := range results {
		if pr.Violation() && pr.Err == "" {
			var s PointResult
			parallelFor(1, func(int) { s = c.replay(c.shrink(pr)) })
			r.Shrunk = &s
			break
		}
	}
	return r, nil
}

// shrink bisects the violating point's trigger threshold toward the
// smallest value that still violates, re-running the cycle untraced
// each probe, and returns the minimal point with its trigger.
// Deterministic: same seed, same violation, same minimal point.
func (c *Campaign) shrink(bad PointResult) (PointResult, Trigger) {
	trig := c.specs[bad.Index]
	fails := func(t Trigger) bool {
		pr := c.runTrial(bad.Index, t, false)
		if pr.Violation() && pr.Err == "" {
			bad, trig = pr, t
			return true
		}
		return false
	}
	switch {
	case trig.N > 0:
		lo, hi := uint64(1), trig.N
		for lo < hi {
			mid := lo + (hi-lo)/2
			if fails(Trigger{On: trig.On, N: mid}) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	case trig.At > 0:
		lo, hi := sim.Time(1), trig.At
		for lo < hi {
			mid := lo + (hi-lo)/2
			if fails(Trigger{At: mid}) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	return bad, trig
}

// Violations returns the violating points (index order).
func (r *Report) Violations() []PointResult {
	var out []PointResult
	for _, pr := range r.Results {
		if pr.Violation() {
			out = append(out, pr)
		}
	}
	return out
}

// WriteText renders the deterministic campaign report.
func (r *Report) WriteText(w io.Writer) error {
	classes := map[string]int{}
	tripped := 0
	committed, recovered, survivors, persisted := 0, 0, 0, 0
	var energy float64
	var series [len(reportSeries)]uint64
	for _, pr := range r.Results {
		classes[triggerClass(pr.Trigger)]++
		if pr.TrippedBy != "" {
			tripped++
		}
		committed += pr.Committed
		recovered += pr.Recovered
		if pr.StagedSurvived {
			survivors++
		}
		if pr.Persisted {
			persisted++
		}
		energy += pr.DumpEnergyJ
		for k, v := range pr.Series {
			series[k] += v
		}
	}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "campaign %s: %d points x %d ops, seed 0x%x\n",
		r.Name, r.Points, r.Ops, r.Seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "  triggers:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, classes[n])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  tripped mid-run: %d/%d\n", tripped, len(r.Results))
	fmt.Fprintf(w, "  committed=%d recovered=%d staged-survivors=%d dump-persisted=%d/%d\n",
		committed, recovered, survivors, persisted, len(r.Results))
	fmt.Fprintf(w, "  dump energy: %.2f mJ total\n", energy*1e3)
	fmt.Fprintf(w, "  faults:")
	for k, s := range reportSeries {
		fmt.Fprintf(w, " %s=%d", s.label, series[k])
	}
	fmt.Fprintln(w)
	viol := r.Violations()
	fmt.Fprintf(w, "  violations: %d\n", len(viol))
	for _, pr := range viol {
		fmt.Fprintf(w, "  VIOLATION point %d trigger %s: lost=%d %v phantom=%d %v err=%q",
			pr.Index, pr.Trigger, len(pr.Lost), pr.Lost, len(pr.Phantom), pr.Phantom, pr.Err)
		if pr.Audit != "" {
			fmt.Fprintf(w, " audit=%q", pr.Audit)
		}
		fmt.Fprintln(w)
	}
	// Post-mortem context: the minimal point's flight dump when the
	// shrinker found one, otherwise the first violation's.
	dump := func(pr *PointResult) error {
		if pr == nil || pr.Flight == nil {
			return nil
		}
		return pr.Flight.WriteText(w)
	}
	if r.Shrunk != nil {
		if _, err := fmt.Fprintf(w, "  minimal failing crash point: %s (lost=%d phantom=%d)\n",
			r.Shrunk.Trigger, len(r.Shrunk.Lost), len(r.Shrunk.Phantom)); err != nil {
			return err
		}
		return dump(r.Shrunk)
	}
	if len(viol) > 0 {
		return dump(&viol[0])
	}
	return nil
}

// triggerClass maps a trigger description back to its class name for
// the report's histogram line.
func triggerClass(desc string) string {
	for i := 0; i < len(desc); i++ {
		switch desc[i] {
		case '=':
			return desc[:i]
		case '#':
			return desc[:i]
		}
	}
	return desc
}
