package fault

import (
	"fmt"
	"io"
	"sort"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// A Cycle is one crash-recovery workload instance: the crash campaign
// builds a fresh one per point (on a fresh env with the point's plan
// installed), drives committed operations until the injector trips,
// then crashes, recovers and verifies.
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
	// Crash cuts power (PowerLoss) and powers the device back on.
	// persisted reports whether the capacitor dump completed within
	// budget; the energy it consumed is the 2bssd.dump_energy_j gauge.
	Crash(p *sim.Proc) (persisted bool, err error)
	// Recover reopens the engine and probes the full planned keyspace:
	// recovered lists keys present
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

// Crash is the crash kind of campaign: it sweeps power cuts across one
// Cycle workload. Its point generation first executes a fault-free
// profile run to learn the workload's duration and per-class event
// counts, then spreads Points triggers across virtual time and every
// active event class — so the sweep lands crashes mid-WC-burst,
// mid-flush, mid-program and between commits in proportion to where the
// workload actually spends events. A crash point has no choices: its
// Cycle steps by index.
type Crash struct {
	Name   string
	Points int
	Ops    int
	Seed   uint64
	// Build constructs the device stack and workload on env, whose
	// injector already holds the point's plan.
	Build func(env *sim.Env, p *sim.Proc) (Cycle, error)

	// Tweak optionally adjusts one point's fault plan as the point is
	// generated (e.g. cutting the capacitor dump short on a subset of
	// points so recovery must repair torn tails). The plan arrives with
	// Seed and the PowerLoss trigger already set.
	Tweak func(i int, plan *Plan)
}

// CrashPoint and CrashReport are the engine's types for the crash kind.
type (
	CrashPoint  = Point[struct{}, Plan]
	CrashReport = Report[struct{}, Plan, PointResult]
)

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
	TrippedBy string // "" when the workload finished before the trigger

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
}

// Violation reports whether the point breaks the durability contract:
// a committed record lost despite a persisted dump, any phantom
// record, a failed audit, or a harness error.
func (pr PointResult) Violation() bool {
	return (pr.Persisted && len(pr.Lost) > 0) || len(pr.Phantom) > 0 || pr.Audit != "" || pr.Err != ""
}

// Harness reports a harness error: a violation never shrunk.
func (pr PointResult) Harness() bool { return pr.Err != "" }

// Verdict lists what recovery lost and revived, and what failed.
func (pr PointResult) Verdict() string {
	s := fmt.Sprintf("lost=%d %v phantom=%d %v err=%q", len(pr.Lost), pr.Lost, len(pr.Phantom), pr.Phantom, pr.Err)
	if pr.Audit != "" {
		s += fmt.Sprintf(" audit=%q", pr.Audit)
	}
	return s
}

// FailedAt is -1: a crash point makes no choices.
func (pr PointResult) FailedAt() int { return -1 }

// Broken returns the result with the harness error why.
func (pr PointResult) Broken(why string) PointResult {
	pr.Err = why
	return pr
}

// Campaign returns the engine's campaign for the sweep.
func (c *Crash) Campaign() *Campaign[struct{}, Plan, PointResult] {
	return &Campaign[struct{}, Plan, PointResult]{
		Points: c.points,
		Check:  c.check,
		Reason: func(pt CrashPoint, _ PointResult) string {
			return fmt.Sprintf("campaign %s point %d trigger %s: durability violation", c.Name, pt.Index, pt.Plan.PowerLoss)
		},
		Summary: c.summary,
	}
}

// points runs the fault-free profile pass and derives every point's
// plan: its trigger, its seed (decorrelated from the point order so
// results do not depend on scheduling) and the Tweak.
func (c *Crash) points() ([]CrashPoint, error) {
	if c.Points <= 0 || c.Ops <= 0 || c.Build == nil {
		return nil, fmt.Errorf("fault: campaign %q needs Points, Ops and Build", c.Name)
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
		return nil, perr
	}

	// Active trigger classes: virtual time plus every event class the
	// profile run actually exercised.
	type class struct {
		ev   Event
		time bool
		max  uint64
	}
	classes := []class{{time: true, max: uint64(env.Now())}}
	for ev := Event(0); ev < numEvents; ev++ {
		if n := in.Count(ev); n > 0 {
			classes = append(classes, class{ev: ev, max: n})
		}
	}
	perClass := (c.Points + len(classes) - 1) / len(classes)
	jit := sim.NewRand(c.Seed ^ 0x2B55D001)
	pts := make([]CrashPoint, c.Points)
	for i := range pts {
		cl := classes[i%len(classes)]
		j := i / len(classes)
		frac := (float64(j) + jit.Float()) / float64(perClass)
		if frac >= 1 {
			frac = 0.999999
		}
		n := min(1+uint64(frac*float64(cl.max)), cl.max)
		plan := Plan{Seed: c.Seed + uint64(i)*0x9E3779B97F4A7C15, PowerLoss: Trigger{On: cl.ev, N: n}}
		if cl.time {
			plan.PowerLoss = Trigger{At: sim.Time(n)}
		}
		if c.Tweak != nil {
			c.Tweak(i, &plan)
		}
		pts[i] = CrashPoint{Index: i, Seed: plan.Seed, Plan: plan}
	}
	return pts, nil
}

// check runs one crash point on env: the workload steps until the
// injector trips, stages, crashes, recovers and is verified.
func (c *Crash) check(env *sim.Env, _ CrashPoint) PointResult {
	var pr PointResult
	in := Of(env)
	reg := obs.Of(env).Registry()
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
		pr.TrippedBy, _ = in.TripInfo()
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
	return pr
}

// summary writes the crash report's own lines: the sweep, its trigger
// classes, what committed and recovered, the dump energy, the faults
// that fired and the violation count.
func (c *Crash) summary(w io.Writer, r *CrashReport) error {
	classes := map[string]int{}
	tripped := 0
	committed, recovered, survivors, persisted := 0, 0, 0, 0
	var energy float64
	var series [len(reportSeries)]uint64
	for _, f := range r.Findings {
		pr := f.Result
		classes[triggerClass(f.Point.Plan.PowerLoss)]++
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
		c.Name, c.Points, c.Ops, c.Seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "  triggers:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, classes[n])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  tripped mid-run: %d/%d\n", tripped, len(r.Findings))
	fmt.Fprintf(w, "  committed=%d recovered=%d staged-survivors=%d dump-persisted=%d/%d\n",
		committed, recovered, survivors, persisted, len(r.Findings))
	fmt.Fprintf(w, "  dump energy: %.2f mJ total\n", energy*1e3)
	fmt.Fprintf(w, "  faults:")
	for k, s := range reportSeries {
		fmt.Fprintf(w, " %s=%d", s.label, series[k])
	}
	fmt.Fprintln(w)
	_, err := fmt.Fprintf(w, "  violations: %d\n", len(r.Violations()))
	return err
}

// triggerClass names a trigger's class for the report's histogram line.
func triggerClass(t Trigger) string {
	switch {
	case t.At > 0:
		return "t"
	case t.N > 0:
		return t.On.String()
	}
	return "none"
}
