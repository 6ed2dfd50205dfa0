package bench

import (
	"bytes"
	"testing"
)

// TestFleetGate runs the CI smoke fleet (crash + takeover): any
// lost/phantom record or missed failover surfaces as a non-nil error
// here exactly as it would fail `bench2b fleet-smoke`. The full family's
// gate is TestFleetJobsInvariance's.
func TestFleetGate(t *testing.T) {
	var out bytes.Buffer
	if err := runFleet(runner(Quick), &out, "fleet-smoke", ""); err != nil {
		t.Fatalf("fleet-smoke: %v\n%s", err, out.String())
	}
}

// TestFleetJobsInvariance demands the whole fleet family — tables,
// merged metrics snapshot, and merged metric timeline — be
// byte-identical at -j 1 vs -j 8, with no gate failing. Running fleets
// side by side must not leak host scheduling into any observable result.
func TestFleetJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep; skipped with -short")
	}
	if m := jobsInvariant(t, "fleet"); !bytes.Contains(m, []byte("fleet.qos.fairness")) {
		t.Errorf("merged metrics lack the fleet.qos.fairness gauge")
	}
}
