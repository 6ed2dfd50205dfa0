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

func (c *plantedCycle) Crash(p *sim.Proc) (bool, float64, error) {
	obs.Of(c.env).Tracer().Instant("workload", "fault", "power_cut")
	p.Sleep(10 * sim.Microsecond)
	return true, 1e-4, nil
}

func (c *plantedCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	p.Sleep(10 * sim.Microsecond)
	if len(c.committed) == 0 {
		return nil, nil, nil
	}
	return c.committed[:len(c.committed)-1], nil, nil // planted loss
}

// TestPlantedViolationProducesFlightDump plants a durability violation
// and checks the campaign hands over a flight dump whose span tail
// leads up to the trigger, both in the result and in the text report.
func TestPlantedViolationProducesFlightDump(t *testing.T) {
	c := &fault.Campaign{
		Name: "planted", Points: 3, Ops: 6, Seed: 0x2b55,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &plantedCycle{env: env}, nil
		},
	}
	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
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

func (c *cleanCycle) Crash(p *sim.Proc) (bool, float64, error) {
	p.Sleep(10 * sim.Microsecond)
	return true, 1e-4, nil
}

func (c *cleanCycle) Recover(p *sim.Proc) ([]string, []string, error) {
	return append([]string(nil), c.committed...), nil, nil
}

// repairCycle is a cleanCycle that additionally reports torn-tail
// repair outcomes through fault.RepairReporter.
type repairCycle struct {
	cleanCycle
	repairs int
	fail    string
}

func (c *repairCycle) RecoveryRepair() (int, string) { return c.repairs, c.fail }

func (c *repairCycle) Step(p *sim.Proc, i int) (string, error) {
	sp := obs.Of(c.env).Tracer().BeginProc(p, "workload", "repair_step")
	p.Sleep(50 * sim.Microsecond)
	sp.End()
	return c.cleanCycle.Step(p, i)
}

// TestRepairFailureIsViolationWithDump: a WAL recovery that cannot
// durably repair its torn tail is a first-class campaign violation —
// surfaced with the repair error and a flight-recorder dump — even
// when no committed record was lost.
func TestRepairFailureIsViolationWithDump(t *testing.T) {
	c := &fault.Campaign{
		Name: "repair-fail", Points: 2, Ops: 4, Seed: 0x2b57,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{
				cleanCycle: cleanCycle{env: env},
				repairs:    1, fail: "readback at 4096 not clean",
			}, nil
		},
	}
	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
		if !strings.Contains(pr.Err, "recovery repair") ||
			!strings.Contains(pr.Err, "readback at 4096") {
			t.Fatalf("point %d err = %q, want the repair failure", pr.Index, pr.Err)
		}
		if pr.Flight == nil || len(pr.Flight.Events) == 0 {
			t.Fatalf("point %d repair violation carries no flight dump", pr.Index)
		}
		if pr.Repairs != 1 {
			t.Fatalf("point %d repairs = %d, want 1", pr.Index, pr.Repairs)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), `err="recovery repair: readback at 4096 not clean"`) {
		t.Fatalf("report does not surface the repair failure:\n%s", buf.String())
	}
}

// auditCycle is a cleanCycle whose stack fails its own audit after
// recovery (fault.Auditor).
type auditCycle struct{ cleanCycle }

func (c *auditCycle) Audit() error { return errors.New("l2p[3] = 7 but p2l[7] = 4") }

// TestAuditFailureIsViolationWithDump: a stack whose invariants break
// across a recovery is a campaign violation with a flight dump, even
// when every committed record came back.
func TestAuditFailureIsViolationWithDump(t *testing.T) {
	c := &fault.Campaign{
		Name: "audit-fail", Points: 2, Ops: 4, Seed: 0x2b59,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &auditCycle{cleanCycle{env: env}}, nil
		},
	}
	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
		if pr.Err != "audit: l2p[3] = 7 but p2l[7] = 4" {
			t.Fatalf("point %d err = %q, want the audit failure", pr.Index, pr.Err)
		}
		if pr.Flight == nil {
			t.Fatalf("point %d audit violation carries no flight dump", pr.Index)
		}
	}
}

// TestSuccessfulRepairsAggregate: successful torn-tail repairs are no
// violation and aggregate into the report's torn-repairs fault count.
func TestSuccessfulRepairsAggregate(t *testing.T) {
	c := &fault.Campaign{
		Name: "repair-ok", Points: 3, Ops: 4, Seed: 0x2b58,
		Build: func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			return &repairCycle{cleanCycle: cleanCycle{env: env}, repairs: 2}, nil
		},
	}
	serial := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
	if !strings.Contains(buf.String(), "torn-repairs=6") {
		t.Fatalf("report missing aggregated torn-repairs:\n%s", buf.String())
	}
}
