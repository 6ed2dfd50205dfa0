package bench

import (
	"bytes"
	"testing"

	"twobssd/internal/obs"
)

// TestFleetGate runs the CI smoke fleet (crash + takeover) and the
// full scenario family once: any lost/phantom record or missed failover
// surfaces as a non-nil error here exactly as it would fail
// `bench2b fleet`.
func TestFleetGate(t *testing.T) {
	var out bytes.Buffer
	if err := RunFleet(runner(Quick), &out, true); err != nil {
		t.Fatalf("fleet-smoke: %v\n%s", err, out.String())
	}
	if testing.Short() {
		return
	}
	out.Reset()
	if err := RunFleet(runner(Quick), &out, false); err != nil {
		t.Fatalf("fleet: %v\n%s", err, out.String())
	}
}

// TestFleetJobsInvariance demands the whole fleet family — tables,
// merged metrics snapshot, and merged metric timeline — be
// byte-identical at -j 1 vs -j 8. Running fleets side by side must not
// leak host scheduling into any observable result.
func TestFleetJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep; skipped with -short")
	}
	sweep := func(jobs int) (tables, metrics, timeline []byte) {
		col := obs.NewCollector(false)
		col.EnableSampling()
		col.Install()
		defer col.Uninstall()
		var out bytes.Buffer
		violations, err := runFleetScenarios(NewRunner(Quick, jobs), &out, fleetScenarios(Quick))
		if err != nil || len(violations) > 0 {
			t.Fatalf("jobs=%d: %v %v", jobs, err, violations)
		}
		var m, tl bytes.Buffer
		if err := col.WriteMetricsJSON(&m); err != nil {
			t.Fatalf("jobs=%d: metrics: %v", jobs, err)
		}
		if err := col.WriteTimelineJSON(&tl); err != nil {
			t.Fatalf("jobs=%d: timeline: %v", jobs, err)
		}
		return out.Bytes(), m.Bytes(), tl.Bytes()
	}
	t1, m1, tl1 := sweep(1)
	t8, m8, tl8 := sweep(8)
	if !bytes.Equal(t1, t8) {
		t.Errorf("fleet tables differ between -j 1 and -j 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Errorf("fleet merged metrics differ between -j 1 and -j 8")
	}
	if !bytes.Equal(tl1, tl8) {
		t.Errorf("fleet merged timeline differs between -j 1 and -j 8 (%d vs %d bytes)", len(tl1), len(tl8))
	}
	if len(tl1) < 100 {
		t.Errorf("fleet merged timeline is empty: %s", tl1)
	}
	if !bytes.Contains(m1, []byte("fleet.qos.fairness")) {
		t.Errorf("merged metrics lack the fleet.qos.fairness gauge")
	}
}
