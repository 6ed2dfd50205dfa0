package fault_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// plantedCycle is a synthetic workload that commits keys, instruments
// each step as a span, and — the planted bug — always loses its last
// committed key on recovery despite reporting a persisted dump.
type plantedCycle struct {
	env       *sim.Env
	committed []string
}

func (c *plantedCycle) Step(p *sim.Proc, i int) (string, error) {
	tr := obs.Of(c.env).Tracer()
	sp := tr.BeginProc(p, "workload", "commit_step")
	p.Sleep(100 * sim.Microsecond)
	sp.End()
	key := fmt.Sprintf("k%03d", i)
	c.committed = append(c.committed, key)
	return key, nil
}

func (c *plantedCycle) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *plantedCycle) Crash(p *sim.Proc) (bool, error) {
	obs.Of(c.env).Tracer().Instant("workload", "fault", "power_cut")
	p.Sleep(10 * sim.Microsecond)
	return true, nil
}

func (c *plantedCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	p.Sleep(10 * sim.Microsecond)
	if len(c.committed) == 0 {
		return nil, nil, nil
	}
	return c.committed[:len(c.committed)-1], nil, nil // planted loss
}

// TestPlantedViolationProducesFlightDump plants a durability violation
// and checks the campaign hands over the flight dump of its replay,
// whose span tail leads up to the trigger, both in the result and in
// the text report.
func TestPlantedViolationProducesFlightDump(t *testing.T) {
	c := &fault.Crash{
		Name: "planted", Points: 3, Ops: 6, Seed: 0x2b55,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &plantedCycle{env: env}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) == 0 {
		t.Fatal("planted violation not detected")
	}
	for _, f := range viol {
		if f.Flight == nil {
			t.Fatalf("point %d violated but has no flight dump", f.Point.Index)
		}
		// The dump is headed by the point's line: the address that
		// replays it, its seed and trigger, and what its check found.
		if want := fmt.Sprintf("test/row/%d seed %#x trigger %s: %s", f.Point.Index, f.Point.Seed, f.Point.Plan.PowerLoss, f.Result.Verdict()); f.Flight.Reason != want {
			t.Fatalf("dump reason = %q, want %q", f.Flight.Reason, want)
		}
		if len(f.Flight.Events) == 0 {
			t.Fatalf("point %d flight dump is empty", f.Point.Index)
		}
		var spans int
		for _, ev := range f.Flight.Events {
			if ev.Kind == "span" && ev.Name == "commit_step" {
				spans++
			}
		}
		if spans == 0 {
			t.Fatalf("point %d dump has no commit_step spans: %+v", f.Point.Index, f.Flight.Events)
		}
		// Chronological, ending at (or after) the events nearest the
		// crash: the last event must not precede the first.
		first, last := f.Flight.Events[0], f.Flight.Events[len(f.Flight.Events)-1]
		if last.TimeNs < first.TimeNs {
			t.Fatalf("dump events out of order: %d .. %d", first.TimeNs, last.TimeNs)
		}
	}
	if rep.Shrunk == nil || rep.Shrunk.Flight == nil {
		t.Fatal("shrunk minimal point carries no flight dump")
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"flight recorder", "commit_step", "metrics at failure"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCleanCampaignHasNoDump checks dumps are captured only on
// violation — a clean sweep stays dump-free.
func TestCleanCampaignHasNoDump(t *testing.T) {
	c := &fault.Crash{
		Name: "clean", Points: 2, Ops: 4, Seed: 0x2b56,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &cleanCycle{env: env}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Violations()) != 0 {
		t.Fatalf("clean campaign reported violations: %+v", rep.Violations())
	}
	for _, f := range rep.Findings {
		if f.Flight != nil {
			t.Fatalf("clean point %d carries a flight dump", f.Point.Index)
		}
	}
}

type cleanCycle struct {
	env       *sim.Env
	committed []string
}

func (c *cleanCycle) Step(p *sim.Proc, i int) (string, error) {
	p.Sleep(50 * sim.Microsecond)
	key := fmt.Sprintf("k%03d", i)
	c.committed = append(c.committed, key)
	return key, nil
}

func (c *cleanCycle) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *cleanCycle) Crash(p *sim.Proc) (bool, error) {
	p.Sleep(10 * sim.Microsecond)
	obs.Of(c.env).Registry().Gauge("2bssd.dump_energy_j").Set(1e-4)
	return true, nil
}

func (c *cleanCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	return append([]string(nil), c.committed...), nil, nil
}

// repairCycle is a cleanCycle whose recovery cuts torn log tails the
// way a ring WAL does: each cut counts in wal.seg_torn_repairs, and a
// cut that cannot be made durable fails Recover.
type repairCycle struct {
	cleanCycle
	repairs uint64
	fail    error
}

func (c *repairCycle) Step(p *sim.Proc, i int) (string, error) {
	sp := obs.Of(c.env).Tracer().BeginProc(p, "workload", "repair_step")
	p.Sleep(50 * sim.Microsecond)
	sp.End()
	return c.cleanCycle.Step(p, i)
}

func (c *repairCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	obs.Of(c.env).Registry().Counter("wal.seg_torn_repairs").Add(c.repairs)
	if c.fail != nil {
		return nil, nil, fmt.Errorf("wal: cutting the torn tail back to 4096: %w", c.fail)
	}
	return c.cleanCycle.Recover(p)
}

// TestRepairFailureIsViolationWithDump: a WAL recovery that cannot
// durably cut its torn tail fails Recover, and the campaign surfaces
// that error as a violation with a replayed flight dump, even though
// no committed record was reported lost.
func TestRepairFailureIsViolationWithDump(t *testing.T) {
	c := &fault.Crash{
		Name: "repair-fail", Points: 2, Ops: 4, Seed: 0x2b57,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{
				cleanCycle: cleanCycle{env: env},
				fail:       errors.New("readback at 4096 not clean"),
			}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) != 2 {
		t.Fatalf("violations = %d, want every point", len(viol))
	}
	for _, f := range viol {
		if !strings.Contains(f.Result.Err, "recover: wal: cutting the torn tail") ||
			!strings.Contains(f.Result.Err, "readback at 4096") {
			t.Fatalf("point %d err = %q, want the cut's failure", f.Point.Index, f.Result.Err)
		}
		if f.Flight == nil || len(f.Flight.Events) == 0 {
			t.Fatalf("point %d repair violation carries no flight dump", f.Point.Index)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), `err="recover: wal: cutting the torn tail back to 4096: readback at 4096 not clean"`) {
		t.Fatalf("report does not surface the cut's failure:\n%s", buf.String())
	}
}

// auditCycle is a cleanCycle whose stack fails its own audit after
// recovery (fault.Auditor) once the power cut came at or after failAt
// (0: always).
type auditCycle struct {
	cleanCycle
	failAt sim.Time
}

func (c *auditCycle) Audit() error {
	if _, at := fault.Of(c.env).TripInfo(); at < c.failAt {
		return nil
	}
	return errors.New("l2p[3] = 7 but p2l[7] = 4")
}

// TestAuditFailureIsViolationWithDump: a stack whose invariants break
// across a recovery is a campaign violation with a flight dump, even
// when every committed record came back.
func TestAuditFailureIsViolationWithDump(t *testing.T) {
	c := &fault.Crash{
		Name: "audit-fail", Points: 2, Ops: 4, Seed: 0x2b59,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &auditCycle{cleanCycle: cleanCycle{env: env}}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) != 2 {
		t.Fatalf("violations = %d, want every point", len(viol))
	}
	for _, f := range viol {
		if f.Result.Audit != "l2p[3] = 7 but p2l[7] = 4" || f.Result.Err != "" {
			t.Fatalf("point %d audit = %q err = %q, want the audit failure alone", f.Point.Index, f.Result.Audit, f.Result.Err)
		}
		if f.Flight == nil {
			t.Fatalf("point %d audit violation carries no flight dump", f.Point.Index)
		}
	}
}

// TestAuditFailureShrinks: an audit that fails only for power cuts at
// or after 400 µs shrinks like a lost record, to the cut at exactly
// 400 µs, with the replayed dump of that point.
func TestAuditFailureShrinks(t *testing.T) {
	const k = sim.Time(400 * sim.Microsecond)
	c := &fault.Crash{
		Name: "audit-shrink", Points: 4, Ops: 20, Seed: 0x2b5a,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &auditCycle{cleanCycle: cleanCycle{env: env}, failAt: k}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Violations()) == 0 {
		t.Fatal("no point cut at or after 400 µs")
	}
	if rep.Shrunk == nil {
		t.Fatal("the audit failure was not shrunk")
	}
	if want := (fault.Trigger{At: k}).String(); rep.Shrunk.Point.Plan.PowerLoss.String() != want || rep.Shrunk.Result.Audit == "" {
		t.Fatalf("shrunk to %s (audit %q), want %s", rep.Shrunk.Point.Plan.PowerLoss, rep.Shrunk.Result.Audit, want)
	}
	if rep.Shrunk.Flight == nil {
		t.Fatal("shrunk audit failure carries no flight dump")
	}
}

// flakyCycle loses its last key on the first run of every point and
// never again: a cycle that does not replay the same way twice.
type flakyCycle struct {
	cleanCycle
	runs map[sim.Time]int // the point's cut instant -> runs so far
}

func (c *flakyCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	got, _, _ := c.cleanCycle.Recover(p)
	_, at := fault.Of(c.env).TripInfo()
	if c.runs[at]++; c.runs[at] == 1 && len(got) > 0 {
		got = got[:len(got)-1]
	}
	return got, nil, nil
}

// TestNondeterministicReplayIsReported: a violation the traced replay
// does not reproduce is reported as a determinism failure, without a
// dump of a run that did not fail.
func TestNondeterministicReplayIsReported(t *testing.T) {
	runs := map[sim.Time]int{}
	c := &fault.Crash{
		Name: "flaky", Points: 2, Ops: 4, Seed: 0x2b5b,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &flakyCycle{cleanCycle: cleanCycle{env: env}, runs: runs}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) == 0 {
		t.Fatal("the first run's loss was not reported")
	}
	for _, f := range viol {
		if !strings.HasPrefix(f.Result.Err, "nondeterministic: the traced replay gave lost=0 []") {
			t.Fatalf("point %d err = %q, want a determinism failure", f.Point.Index, f.Result.Err)
		}
		if f.Flight != nil {
			t.Fatalf("point %d dumps a replay that did not fail", f.Point.Index)
		}
	}
	if rep.Shrunk != nil {
		t.Fatalf("a determinism failure was shrunk: %+v", rep.Shrunk)
	}
}

// TestSuccessfulRepairsAggregate: successful torn-tail cuts are no
// violation and the report totals each point's wal.seg_torn_repairs.
func TestSuccessfulRepairsAggregate(t *testing.T) {
	c := &fault.Crash{
		Name: "repair-ok", Points: 3, Ops: 4, Seed: 0x2b58,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{cleanCycle: cleanCycle{env: env}, repairs: 2}, nil
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Violations()) != 0 {
		t.Fatalf("successful repairs misreported as violations: %+v", rep.Violations())
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"torn-repairs=6", "dump energy: 0.30 mJ total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// serial is the campaigns' parallelFor in these tests: one point after
// another.
func serial(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// toyPlan is a fault plan with one dimension more than Plan: a bit that
// sticks at the first sample taken at or after Stuck. It exists only in
// this test, which shows that a new fault dimension costs one plan field
// and one check — the engine bisects, replays and reports it unchanged.
type toyPlan struct {
	fault.Plan
	Stuck fault.Trigger
}

// toyResult lists the sample instants still corrupt when the run ends.
type toyResult struct {
	Corrupt []int64
	Err     string
}

func (r toyResult) Violation() bool { return len(r.Corrupt) > 0 || r.Err != "" }
func (r toyResult) Harness() bool   { return r.Err != "" }
func (r toyResult) Verdict() string { return fmt.Sprintf("corrupt=%v err=%q", r.Corrupt, r.Err) }
func (r toyResult) FailedAt() int   { return -1 }
func (r toyResult) Broken(why string) toyResult {
	r.Err = why
	return r
}

// toyCheck samples every 10 µs for 1 ms. The stuck bit corrupts the
// first sample at or after the plan's Stuck instant, and a scrub at
// 400 µs repairs what is corrupt by then — so a bit that sticks later
// than 400 µs is a violation, and the minimal one sticks at 400 µs + 1 ns.
func toyCheck(env *sim.Env, pt fault.Point[struct{}, toyPlan]) toyResult {
	var r toyResult
	stuck, hit := pt.Plan.Stuck.At, false
	env.Go("toy", func(p *sim.Proc) {
		for k := 0; k < 100; k++ {
			sp := obs.Of(env).Tracer().BeginProc(p, "toy", "sample")
			p.Sleep(10 * sim.Microsecond)
			sp.End()
			if now := env.Now(); !hit && stuck > 0 && now >= stuck {
				hit, r.Corrupt = true, append(r.Corrupt, int64(now))
			}
			if env.Now() == sim.Time(400*sim.Microsecond) {
				r.Corrupt = nil
			}
		}
	})
	env.Run()
	return r
}

// TestToyDimensionShrinksAndReplays: a campaign over the toy dimension
// needs nothing of the engine but its plan type, its check and its
// summary. The violating points are replayed with a dump, and the first
// shrinks to the smallest Stuck instant that still fails.
func TestToyDimensionShrinksAndReplays(t *testing.T) {
	c := &fault.Campaign[struct{}, toyPlan, toyResult]{
		Points: func() ([]fault.Point[struct{}, toyPlan], error) {
			var pts []fault.Point[struct{}, toyPlan]
			for i, us := range []sim.Time{700, 900, 200} {
				pts = append(pts, fault.Point[struct{}, toyPlan]{Index: i, Plan: toyPlan{Stuck: fault.Trigger{At: us * sim.Time(sim.Microsecond)}}})
			}
			return pts, nil
		},
		Check: toyCheck,
		Summary: func(w io.Writer, rep *fault.Report[struct{}, toyPlan, toyResult]) error {
			_, err := fmt.Fprintf(w, "toy: %d points\n", len(rep.Findings))
			return err
		},
	}
	rep, err := c.Run(serial, "test/row")
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 2 || v[0].Point.Index != 0 || v[1].Point.Index != 1 || v[0].Flight == nil {
		t.Fatalf("violations %+v, want points 0 and 1 with dumps", v)
	}
	if s := rep.Shrunk; s == nil || s.Point.Plan.Stuck != (fault.Trigger{At: 400_001}) || s.Flight == nil {
		t.Fatalf("shrunk to %+v, want the bit stuck at 400 µs + 1 ns, dumped", s)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"toy: 3 points\n", "  VIOLATION test/row/1 seed 0x0 trigger t=900000ns: corrupt=[900000]",
		"  minimal failing test/row/0 seed 0x0 trigger t=400001ns: corrupt=[410000]", "flight recorder: test/row/0 seed 0x0 trigger t=400001ns: corrupt=[410000] err=\"\" ("} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
	// A point run alone is the sweep's finding: its line, and the dump
	// of a violating point.
	for i := range rep.Findings {
		f, err := c.RunPoint(serial, "test/row", i)
		if err != nil {
			t.Fatal(err)
		}
		var alone, swept bytes.Buffer
		if err := f.WriteText(&alone); err != nil {
			t.Fatal(err)
		}
		if err := rep.Findings[i].WriteText(&swept); err != nil {
			t.Fatal(err)
		}
		if alone.String() != swept.String() || (f.Flight != nil) != (i < 2) {
			t.Errorf("point %d alone:\n%s\nin the sweep:\n%s", i, alone.String(), swept.String())
		}
	}
	var clean bytes.Buffer
	if err := rep.Findings[2].WriteText(&clean); err != nil {
		t.Fatal(err)
	}
	if want := "test/row/2 seed 0x0 trigger t=200000ns: corrupt=[] err=\"\"\n"; clean.String() != want {
		t.Errorf("clean point renders %q, want %q", clean.String(), want)
	}
	if _, err := c.RunPoint(serial, "test/row", 3); err == nil {
		t.Error("point 3 of a 3-point sweep ran")
	}
}

// faultingCycle commits a key per microsecond and recovers every one.
// The planted bug: on the point whose plan cuts the dump, its first Step
// starts a drain process that panics — a stack bug that faults a
// simulated process.
type faultingCycle struct {
	env       *sim.Env
	committed []string
}

func (c *faultingCycle) Step(p *sim.Proc, i int) (string, error) {
	if i == 0 && fault.Of(c.env).DumpCut(1) {
		c.env.Go("planted.drain", func(*sim.Proc) { panic("gc relocation: planted") })
	}
	p.Sleep(sim.Microsecond)
	c.committed = append(c.committed, fmt.Sprintf("k%d", i))
	return c.committed[i], nil
}
func (c *faultingCycle) Stage(*sim.Proc) (string, error)               { return "", nil }
func (c *faultingCycle) Crash(*sim.Proc) (bool, error)                 { return true, nil }
func (c *faultingCycle) Recover(*sim.Proc) ([]string, []string, error) { return c.committed, nil, nil }

// TestProcessFaultIsAViolation: a simulated process that faults at one
// point of a sweep is that point's violation, naming the fault, with
// its index, seed and the flight dump of its traced replay, headed by
// the harness failure, in the report — not a panic that ends the sweep. The other points run clean,
// and the faulted point is not shrunk.
func TestProcessFaultIsAViolation(t *testing.T) {
	c := &fault.Crash{
		Name: "faulting", Points: 4, Ops: 4, Seed: 0x2b55,
		Build: func(env *sim.Env, _ *sim.Proc) (fault.Cycle, error) { return &faultingCycle{env: env}, nil },
		Tweak: func(i int, plan *fault.Plan) {
			if i == 2 {
				plan.CutDumpAfterPages = 1
			}
		},
	}
	rep, err := c.Campaign().Run(serial, "test/row")
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violations()
	if len(rep.Findings) != 4 || len(v) != 1 || v[0].Point.Index != 2 {
		t.Fatalf("%d points, violations %+v; want 4 points and point 2 alone violating", len(rep.Findings), v)
	}
	const fault = `sim: process "planted.drain" faulted: gc relocation: planted`
	if !strings.Contains(v[0].Result.Err, fault) || !v[0].Result.Harness() || v[0].Flight == nil || rep.Shrunk != nil {
		t.Fatalf("point 2: err %q, dump %v, shrunk %v; want the fault named, a dump and no shrink",
			v[0].Result.Err, v[0].Flight != nil, rep.Shrunk)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// The dump is headed by the point's address and the harness
	// failure: nothing was lost.
	if r, want := v[0].Flight.Reason, fmt.Sprintf("test/row/2 seed %#x trigger %s: %s", v[0].Point.Seed, v[0].Point.Plan.PowerLoss, v[0].Result.Verdict()); r != want || !strings.HasSuffix(r, fmt.Sprintf("err=%q", v[0].Result.Err)) {
		t.Errorf("flight dump reason %q; want %q, naming the harness failure", r, want)
	}
	for _, want := range []string{"violations: 1\n", fmt.Sprintf("  VIOLATION test/row/2 seed %#x trigger ", v[0].Point.Seed), "faulted: gc relocation: planted", "flight recorder: "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
}
