package fault

import (
	"fmt"
	"io"
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
	// capacitor dump completed within budget; energyJ is the dump
	// energy consumed.
	Crash(p *sim.Proc) (persisted bool, energyJ float64, err error)
	// Recover powers the device back on, reopens the engine, and
	// probes the full planned keyspace: recovered lists keys present
	// with exactly the written content; phantoms lists keys present
	// that were never appended, or whose content differs from any
	// appended value.
	Recover(p *sim.Proc) (recovered, phantoms []string, err error)
}

// RepairReporter is an optional Cycle extension for workloads whose
// recovery path can repair torn WAL tails (the segmented WAL). After a
// successful Recover the campaign asks how many repairs ran and
// whether any failed; a non-empty failure string is a campaign
// violation and captures the flight recorder like any other
// durability break.
type RepairReporter interface {
	RecoveryRepair() (repairs int, failure string)
}

// Campaign sweeps crash points across one workload. Prepare (or Run)
// first executes a fault-free profile run to learn the workload's
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

// FaultCounts snapshots the injector's counters for one point.
type FaultCounts struct {
	Trips, EccRetries, Uncorrectable   uint64
	ProgramFails, EraseFails, Timeouts uint64
	DumpCuts                           uint64
}

func (a FaultCounts) add(b FaultCounts) FaultCounts {
	a.Trips += b.Trips
	a.EccRetries += b.EccRetries
	a.Uncorrectable += b.Uncorrectable
	a.ProgramFails += b.ProgramFails
	a.EraseFails += b.EraseFails
	a.Timeouts += b.Timeouts
	a.DumpCuts += b.DumpCuts
	return a
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
	Repairs        int // torn-tail repairs recovery performed

	Lost    []string // committed keys missing after recovery (sorted)
	Phantom []string // recovered keys never appended / wrong content (sorted)
	Faults  FaultCounts
	Err     string

	// Flight is the environment's flight-recorder dump, captured only
	// when the point violated the durability contract: the last spans
	// and instants leading up to the trigger, plus metrics at failure.
	Flight *obs.FlightDump
}

// Violation reports whether the point breaks the durability contract:
// a committed record lost despite a persisted dump, any phantom
// record, or a harness error.
func (pr PointResult) Violation() bool {
	return (pr.Persisted && len(pr.Lost) > 0) || len(pr.Phantom) > 0 || pr.Err != ""
}

// Report is a campaign's aggregated, byte-stable outcome.
type Report struct {
	Name        string
	Seed        uint64
	Points, Ops int
	Results     []PointResult
	// Shrunk is the minimal failing crash point found by bisecting the
	// first violation's trigger threshold (nil when the campaign is
	// clean or the violation was a harness error).
	Shrunk *PointResult
}

// Prepare runs the fault-free profile pass and derives the trigger for
// every point. Idempotent; Run calls it automatically.
func (c *Campaign) Prepare() error {
	if c.specs != nil {
		return nil
	}
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
	jit := splitmix64{s: c.Seed ^ 0x2B55D001}
	c.specs = make([]Trigger, c.Points)
	for i := range c.specs {
		cl := classes[i%len(classes)]
		j := i / len(classes)
		frac := (float64(j) + jit.float()) / float64(perClass)
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

// NumPoints returns the planned point count (after Prepare).
func (c *Campaign) NumPoints() int { return len(c.specs) }

// pointSeed decorrelates per-point randomness from the point order so
// results do not depend on scheduling.
func (c *Campaign) pointSeed(i int) uint64 {
	return c.Seed + uint64(i)*0x9E3779B97F4A7C15
}

// RunPoint executes crash point i on a fresh environment. Safe to call
// concurrently for distinct i once Prepare has run.
func (c *Campaign) RunPoint(i int) PointResult {
	return c.runTrial(i, c.specs[i])
}

func (c *Campaign) runTrial(i int, trig Trigger) PointResult {
	pr := PointResult{Index: i, Trigger: trig.String()}
	env := sim.NewEnv()
	defer env.Shutdown() // after the flight dump; parked daemons would pin the drive
	plan := Plan{Seed: c.pointSeed(i), PowerLoss: trig}
	if c.Tweak != nil {
		c.Tweak(i, &plan)
	}
	in := Install(env, plan)
	// Always-on flight recorder: bounded ring, constant memory, so the
	// one point in thousands that violates hands over its last spans.
	set := obs.Of(env)
	set.EnableFlightRecorder(0)
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
		persisted, energy, err := cyc.Crash(p)
		if err != nil {
			pr.Err = fmt.Sprintf("crash: %v", err)
			return
		}
		pr.Persisted, pr.DumpEnergyJ = persisted, energy
		recovered, phantoms, err := cyc.Recover(p)
		if err != nil {
			pr.Err = fmt.Sprintf("recover: %v", err)
			return
		}
		if rr, ok := cyc.(RepairReporter); ok {
			n, fail := rr.RecoveryRepair()
			pr.Repairs = n
			if fail != "" {
				pr.Err = fmt.Sprintf("recovery repair: %s", fail)
				return
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
		pr.Faults = FaultCounts{
			Trips:         in.cTrips.Value(),
			EccRetries:    in.cRetries.Value(),
			Uncorrectable: in.cUncorr.Value(),
			ProgramFails:  in.cProgFail.Value(),
			EraseFails:    in.cEraseFail.Value(),
			Timeouts:      in.cTimeout.Value(),
			DumpCuts:      in.cDumpCut.Value(),
		}
	})
	env.Run()
	if pr.Violation() {
		d := set.FlightDump(fmt.Sprintf("campaign %s point %d trigger %s: durability violation",
			c.Name, i, pr.Trigger))
		pr.Flight = &d
	}
	return pr
}

// Run prepares the campaign, executes every point through parallelFor
// (which must call fn(i) exactly once for each 0 <= i < n, in any
// order or concurrency) and returns the aggregated report. Results
// land in index order, so the report is byte-identical regardless of
// how parallelFor schedules the points.
func (c *Campaign) Run(parallelFor func(n int, fn func(i int))) (*Report, error) {
	if err := c.Prepare(); err != nil {
		return nil, err
	}
	results := make([]PointResult, c.NumPoints())
	parallelFor(len(results), func(i int) { results[i] = c.RunPoint(i) })
	return c.Finish(results), nil
}

// Finish aggregates point results into a report and, when a violation
// is present, shrinks the first one to a minimal failing crash point.
func (c *Campaign) Finish(results []PointResult) *Report {
	r := &Report{Name: c.Name, Seed: c.Seed, Points: c.Points, Ops: c.Ops, Results: results}
	for _, pr := range results {
		if pr.Violation() && pr.Err == "" {
			s := c.shrink(pr)
			r.Shrunk = &s
			break
		}
	}
	return r
}

// shrink bisects the violating point's trigger threshold toward the
// smallest value that still violates, re-running the cycle each probe.
// Deterministic: same seed, same violation, same minimal point.
func (c *Campaign) shrink(bad PointResult) PointResult {
	trig := c.specs[bad.Index]
	fails := func(t Trigger) (PointResult, bool) {
		pr := c.runTrial(bad.Index, t)
		return pr, pr.Violation() && pr.Err == ""
	}
	best := bad
	switch {
	case trig.N > 0:
		lo, hi := uint64(1), trig.N
		for lo < hi {
			mid := lo + (hi-lo)/2
			if pr, v := fails(Trigger{On: trig.On, N: mid}); v {
				best, hi = pr, mid
			} else {
				lo = mid + 1
			}
		}
	case trig.At > 0:
		lo, hi := sim.Time(1), trig.At
		for lo < hi {
			mid := lo + (hi-lo)/2
			if pr, v := fails(Trigger{At: mid}); v {
				best, hi = pr, mid
			} else {
				lo = mid + 1
			}
		}
	}
	return best
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
	repairs := 0
	var energy float64
	var faults FaultCounts
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
		repairs += pr.Repairs
		energy += pr.DumpEnergyJ
		faults = faults.add(pr.Faults)
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
	fmt.Fprintf(w, "  faults: trips=%d ecc-retries=%d uncorrectable=%d program-fails=%d erase-fails=%d timeouts=%d torn-repairs=%d\n",
		faults.Trips, faults.EccRetries, faults.Uncorrectable,
		faults.ProgramFails, faults.EraseFails, faults.Timeouts, repairs)
	viol := r.Violations()
	fmt.Fprintf(w, "  violations: %d\n", len(viol))
	for _, pr := range viol {
		fmt.Fprintf(w, "  VIOLATION point %d trigger %s: lost=%d %v phantom=%d %v err=%q\n",
			pr.Index, pr.Trigger, len(pr.Lost), pr.Lost, len(pr.Phantom), pr.Phantom, pr.Err)
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
