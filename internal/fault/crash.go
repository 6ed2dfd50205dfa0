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
	// Audit checks the stack's own invariants (its drive's page map,
	// write buffer and mapping table) after a successful Recover; an
	// error is a violation, shrunk and dumped like any other durability
	// break.
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
	// CutDumps cuts the capacitor dump short on every fifth point (i%5
	// == 3, after 1 + i%7 pages), so recovery also faces half-dumped BA
	// buffers and must repair torn tails.
	CutDumps bool
}

// CrashPoint and CrashReport are the engine's types for the crash kind.
type (
	CrashPoint  = Point[struct{}]
	CrashReport = Report[struct{}, PointResult]
)

// reportSeries are the registry counters the report totals over every
// point, each with its label on the report's faults line.
var reportSeries = [...]struct{ name, label string }{
	{"fault.trips", "trips"},
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

	Lost    []string                  // committed keys missing after recovery (sorted)
	Phantom []string                  // recovered keys never appended / wrong content (sorted)
	Audit   string                    // the stack's failed self-check after recovery ("" = passed)
	Series  [len(reportSeries)]uint64 // the point's reportSeries values
}

// Violation reports whether the point breaks the durability contract:
// a committed record lost despite a persisted dump, any phantom
// record, or a failed audit.
func (pr PointResult) Violation() bool {
	return (pr.Persisted && len(pr.Lost) > 0) || len(pr.Phantom) > 0 || pr.Audit != ""
}

// Verdict lists what recovery lost and revived, and the failed audit.
func (pr PointResult) Verdict() string {
	s := fmt.Sprintf("lost=%d %v phantom=%d %v", len(pr.Lost), pr.Lost, len(pr.Phantom), pr.Phantom)
	if pr.Audit != "" {
		s += fmt.Sprintf(" audit=%q", pr.Audit)
	}
	return s
}

// FailedAt is -1: a crash point makes no choices.
func (pr PointResult) FailedAt() int { return -1 }

// Campaign returns the engine's campaign for the sweep.
func (c *Crash) Campaign() *Campaign[struct{}, PointResult] {
	return &Campaign[struct{}, PointResult]{
		Points:  c.points,
		Check:   c.check,
		Summary: c.summary,
	}
}

// points runs the fault-free profile pass and derives every point's
// plan: its trigger, its seed (decorrelated from the point order so
// results do not depend on scheduling) and, with CutDumps, its dump cut.
func (c *Crash) points() ([]CrashPoint, error) {
	if c.Points <= 0 || c.Ops <= 0 || c.Build == nil {
		return nil, fmt.Errorf("fault: campaign %q needs Points, Ops and Build", c.Name)
	}
	env := sim.NewEnv()
	defer env.Shutdown() // its parked daemons would pin the drive
	in := Install(env, Plan{})
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
		plan := Plan{PowerLoss: Trigger{On: cl.ev, N: n}}
		if cl.time {
			plan.PowerLoss = Trigger{At: sim.Time(n)}
		}
		if c.CutDumps && i%5 == 3 {
			plan.CutDumpAfterPages = 1 + i%7
		}
		pts[i] = CrashPoint{Index: i, Seed: c.Seed + uint64(i)*0x9E3779B97F4A7C15, Plan: plan}
	}
	return pts, nil
}

// check runs one crash point on env: the workload steps until the
// injector trips, stages, crashes, recovers and is verified. An error
// of the workload's own is the point's harness failure.
func (c *Crash) check(env *sim.Env, _ CrashPoint) (pr PointResult, perr error) {
	in := Of(env)
	reg := obs.Of(env).Registry()
	env.Go("fault.point", func(p *sim.Proc) {
		cyc, err := c.Build(env, p)
		if err != nil {
			perr = fmt.Errorf("build: %w", err)
			return
		}
		var committed []string
		for k := 0; k < c.Ops; k++ {
			if in.Tripped() {
				break
			}
			key, err := cyc.Step(p, k)
			if err != nil {
				perr = fmt.Errorf("step %d: %w", k, err)
				return
			}
			committed = append(committed, key)
		}
		pr.TrippedBy, _ = in.TripInfo()
		in.Disarm()
		staged, err := cyc.Stage(p)
		if err != nil {
			perr = fmt.Errorf("stage: %w", err)
			return
		}
		persisted, err := cyc.Crash(p)
		if err != nil {
			perr = fmt.Errorf("crash: %w", err)
			return
		}
		pr.Persisted, pr.DumpEnergyJ = persisted, reg.Gauge("2bssd.dump_energy_j").Value()
		recovered, phantoms, err := cyc.Recover(p)
		if err != nil {
			perr = fmt.Errorf("recover: %w", err)
			return
		}
		if err := cyc.Audit(); err != nil {
			pr.Audit = err.Error()
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
	return pr, perr
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
