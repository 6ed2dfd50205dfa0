package fault_test

import (
	"bytes"
	"errors"
	"fmt"
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
	c := &fault.Campaign{
		Name: "planted", Points: 3, Ops: 6, Seed: 0x2b55,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &plantedCycle{env: env}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) == 0 {
		t.Fatal("planted violation not detected")
	}
	for _, pr := range viol {
		if pr.Flight == nil {
			t.Fatalf("point %d violated but has no flight dump", pr.Index)
		}
		if !strings.Contains(pr.Flight.Reason, "durability violation") {
			t.Fatalf("dump reason = %q", pr.Flight.Reason)
		}
		if len(pr.Flight.Events) == 0 {
			t.Fatalf("point %d flight dump is empty", pr.Index)
		}
		var spans int
		for _, ev := range pr.Flight.Events {
			if ev.Kind == "span" && ev.Name == "commit_step" {
				spans++
			}
		}
		if spans == 0 {
			t.Fatalf("point %d dump has no commit_step spans: %+v", pr.Index, pr.Flight.Events)
		}
		// Chronological, ending at (or after) the events nearest the
		// crash: the last event must not precede the first.
		first, last := pr.Flight.Events[0], pr.Flight.Events[len(pr.Flight.Events)-1]
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
	c := &fault.Campaign{
		Name: "clean", Points: 2, Ops: 4, Seed: 0x2b56,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &cleanCycle{env: env}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Violations()) != 0 {
		t.Fatalf("clean campaign reported violations: %+v", rep.Violations())
	}
	for _, pr := range rep.Results {
		if pr.Flight != nil {
			t.Fatalf("clean point %d carries a flight dump", pr.Index)
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
	c := &fault.Campaign{
		Name: "repair-fail", Points: 2, Ops: 4, Seed: 0x2b57,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{
				cleanCycle: cleanCycle{env: env},
				fail:       errors.New("readback at 4096 not clean"),
			}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) != 2 {
		t.Fatalf("violations = %d, want every point", len(viol))
	}
	for _, pr := range viol {
		if !strings.Contains(pr.Err, "recover: wal: cutting the torn tail") ||
			!strings.Contains(pr.Err, "readback at 4096") {
			t.Fatalf("point %d err = %q, want the cut's failure", pr.Index, pr.Err)
		}
		if pr.Flight == nil || len(pr.Flight.Events) == 0 {
			t.Fatalf("point %d repair violation carries no flight dump", pr.Index)
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
	c := &fault.Campaign{
		Name: "audit-fail", Points: 2, Ops: 4, Seed: 0x2b59,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &auditCycle{cleanCycle: cleanCycle{env: env}}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) != 2 {
		t.Fatalf("violations = %d, want every point", len(viol))
	}
	for _, pr := range viol {
		if pr.Audit != "l2p[3] = 7 but p2l[7] = 4" || pr.Err != "" {
			t.Fatalf("point %d audit = %q err = %q, want the audit failure alone", pr.Index, pr.Audit, pr.Err)
		}
		if pr.Flight == nil {
			t.Fatalf("point %d audit violation carries no flight dump", pr.Index)
		}
	}
}

// TestAuditFailureShrinks: an audit that fails only for power cuts at
// or after 400 µs shrinks like a lost record, to the cut at exactly
// 400 µs, with the replayed dump of that point.
func TestAuditFailureShrinks(t *testing.T) {
	const k = sim.Time(400 * sim.Microsecond)
	c := &fault.Campaign{
		Name: "audit-shrink", Points: 4, Ops: 20, Seed: 0x2b5a,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &auditCycle{cleanCycle: cleanCycle{env: env}, failAt: k}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Violations()) == 0 {
		t.Fatal("no point cut at or after 400 µs")
	}
	if rep.Shrunk == nil {
		t.Fatal("the audit failure was not shrunk")
	}
	if want := (fault.Trigger{At: k}).String(); rep.Shrunk.Trigger != want || rep.Shrunk.Audit == "" {
		t.Fatalf("shrunk to %s (audit %q), want %s", rep.Shrunk.Trigger, rep.Shrunk.Audit, want)
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
	c := &fault.Campaign{
		Name: "flaky", Points: 2, Ops: 4, Seed: 0x2b5b,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &flakyCycle{cleanCycle: cleanCycle{env: env}, runs: runs}, nil
		},
	}
	rep, err := c.Run(serial)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	viol := rep.Violations()
	if len(viol) == 0 {
		t.Fatal("the first run's loss was not reported")
	}
	for _, pr := range viol {
		if !strings.HasPrefix(pr.Err, "nondeterministic: the traced replay gave lost=[]") {
			t.Fatalf("point %d err = %q, want a determinism failure", pr.Index, pr.Err)
		}
		if pr.Flight != nil {
			t.Fatalf("point %d dumps a replay that did not fail", pr.Index)
		}
	}
	if rep.Shrunk != nil {
		t.Fatalf("a determinism failure was shrunk: %+v", rep.Shrunk)
	}
}

// TestSuccessfulRepairsAggregate: successful torn-tail cuts are no
// violation and the report totals each point's wal.seg_torn_repairs.
func TestSuccessfulRepairsAggregate(t *testing.T) {
	c := &fault.Campaign{
		Name: "repair-ok", Points: 3, Ops: 4, Seed: 0x2b58,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{cleanCycle: cleanCycle{env: env}, repairs: 2}, nil
		},
	}
	rep, err := c.Run(serial)
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
