package oracle

import (
	"strings"
	"testing"
)

// TestFuzzCleanSeeds is the oracle's main claim: the reference model
// and the real stack agree, op for op and state for state, across a
// batch of randomized dual-path workloads (including power cycles with
// both persisted and deliberately torn dumps).
func TestFuzzCleanSeeds(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	var repairs, retries uint64
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		res := Run(seed, Config{})
		if res.Divergence != nil {
			t.Fatalf("seed %d diverged: %v", seed, res.Divergence)
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d executed no ops", seed)
		}
		repairs += res.ScrubRepairs
		retries += res.EccRetries
	}
	// The fuzz fault plan pushes the BER just past the ECC budget, so
	// retries (and hence scrub repair work) must actually occur — a
	// zero here means the oracle is fuzzing a fault-free stack.
	if retries == 0 {
		t.Error("no ECC retries across all seeds; fuzz BER plan not biting")
	}
	if repairs == 0 {
		t.Error("no scrub repairs across all seeds; scrub path not exercised")
	}
}

// TestFuzzDeterministic replays one seed twice and demands bit-equal
// results: same op count, same counters, same (absence of) divergence.
func TestFuzzDeterministic(t *testing.T) {
	a := Run(3, Config{})
	b := Run(3, Config{})
	if a.Ops != b.Ops || a.ScrubRepairs != b.ScrubRepairs || a.EccRetries != b.EccRetries {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
	if (a.Divergence == nil) != (b.Divergence == nil) {
		t.Fatalf("divergence not deterministic: %v vs %v", a.Divergence, b.Divergence)
	}
	ops1, ops2 := Generate(9, Config{}), Generate(9, Config{})
	if len(ops1) != len(ops2) {
		t.Fatal("generator not deterministic")
	}
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs: %v vs %v", i, ops1[i], ops2[i])
		}
	}
}

// TestBuggyCheckerCaughtAndShrunk is the oracle self-test demanded by
// the design: run the reference model with a deliberately miswired
// LBA checker (off-by-one on the pinned range's end) and verify the
// harness (a) detects the divergence and (b) shrinks it to a minimal
// op trace — a handful of ops, necessarily containing a pin.
func TestBuggyCheckerCaughtAndShrunk(t *testing.T) {
	cfg := Config{BuggyChecker: true}
	var seed uint64
	var found *Result
	for seed = 0; seed < 32; seed++ {
		res := Run(seed, cfg)
		if res.Divergence != nil {
			found = &res
			break
		}
	}
	if found == nil {
		t.Fatal("buggy checker never diverged across 32 seeds; oracle is blind")
	}
	rep := Shrink(seed, cfg, Generate(seed, cfg))
	if rep.Divergence == nil {
		t.Fatal("shrink lost the divergence")
	}
	if len(rep.Ops) > 5 {
		t.Fatalf("shrunk trace still %d ops: %v", len(rep.Ops), rep.Ops)
	}
	hasPin := false
	for _, o := range rep.Ops {
		if o.Kind == OpPin {
			hasPin = true
		}
	}
	if !hasPin {
		t.Fatalf("minimal trace %v has no pin; checker bug needs one", rep.Ops)
	}
	// The minimal trace must still reproduce on a fresh replay.
	if again := Replay(seed, cfg, rep.Ops); again.Divergence == nil {
		t.Fatal("minimal trace does not reproduce")
	}
	t.Logf("shrunk to %d ops in %d replays: %v (%v)", len(rep.Ops), rep.Replays, rep.Ops, rep.Divergence)
}

// TestDivergenceStrings keeps the human-facing formats stable enough
// to grep in CI logs.
func TestDivergenceStrings(t *testing.T) {
	d := &Divergence{Seed: 7, OpIndex: 3, Op: "pin eid=1", Detail: "boom"}
	if s := d.String(); !strings.Contains(s, "seed 7") || !strings.Contains(s, "pin") {
		t.Fatalf("divergence string %q", s)
	}
	var nilD *Divergence
	if nilD.String() != "<none>" {
		t.Fatal("nil divergence string")
	}
	if got := (Op{Kind: OpPin, EID: 2, LBA: 5, Pages: 1}).String(); !strings.Contains(got, "pin eid=2") {
		t.Fatalf("op string %q", got)
	}
}

// The GCActive profile must put relocation under the trace — victims of
// several runs, collected while the ops execute — agree with the model,
// and leave the default profile's traces exactly as they were.
func TestGCActiveProfileCollects(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		res := Run(seed, Config{GCActive: true})
		if res.Divergence != nil {
			t.Fatalf("seed %d diverged: %v", seed, res.Divergence)
		}
		if res.Ops != 240 || res.GCRelocations < 500 {
			t.Fatalf("seed %d: %d ops, %d pages relocated; want a drive collecting throughout", seed, res.Ops, res.GCRelocations)
		}
	}
	if res := Run(1, Config{}); res.GCRelocations != 0 {
		t.Fatalf("default profile relocated %d pages", res.GCRelocations)
	}
	a, b := Generate(7, Config{}), Generate(7, Config{LBASpan: hotSpan, Ops: 80})
	if len(a) != len(b) {
		t.Fatalf("default trace length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
