package oracle

import (
	"strings"
	"testing"

	"twobssd/internal/sim"
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
		res := run(seed, Config{})
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
	a := run(3, Config{})
	b := run(3, Config{})
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
		res := run(seed, cfg)
		if res.Divergence != nil {
			found = &res
			break
		}
	}
	if found == nil {
		t.Fatal("buggy checker never diverged across 32 seeds; oracle is blind")
	}
	c := Campaign(cfg, 0)
	pt, res := c.Shrink(NewPoint(seed, cfg), *found)
	if res.Divergence == nil {
		t.Fatal("shrink lost the divergence")
	}
	if len(pt.Choices) > 5 {
		t.Fatalf("shrunk trace still %d ops: %v", len(pt.Choices), pt.Choices)
	}
	hasPin := false
	for _, o := range pt.Choices {
		if o.Kind == OpPin {
			hasPin = true
		}
	}
	if !hasPin {
		t.Fatalf("minimal trace %v has no pin; checker bug needs one", pt.Choices)
	}
	// The minimal trace must reproduce on the traced replay, which dumps it.
	if again, dump := c.Replay(pt, res); again.Harness() || dump == nil {
		t.Fatalf("minimal trace does not reproduce: %v", again.Verdict())
	}
	t.Logf("shrunk to %d ops: %v (%v)", len(pt.Choices), pt.Choices, res.Divergence)
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
// several runs, collected while the ops execute — agree with the model;
// the default profile's drive never collects.
func TestGCActiveProfileCollects(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		res := run(seed, Config{GCActive: true})
		if res.Divergence != nil {
			t.Fatalf("seed %d diverged: %v", seed, res.Divergence)
		}
		if res.Ops != 240 || res.GCRelocations < 500 {
			t.Fatalf("seed %d: %d ops, %d pages relocated; want a drive collecting throughout", seed, res.Ops, res.GCRelocations)
		}
	}
	if res := run(1, Config{}); res.GCRelocations != 0 {
		t.Fatalf("default profile relocated %d pages", res.GCRelocations)
	}
}

// TestFillPatternMatchesByteLoop pins fillPattern's word-at-a-time fill
// to the byte loop it replaced: every page image the fuzzer writes, and
// so every divergence it reports, depends on these bytes.
func TestFillPatternMatchesByteLoop(t *testing.T) {
	byteLoop := func(dst []byte, seed uint64) {
		r := sim.NewRand(seed)
		var w uint64
		for i := range dst {
			if i%8 == 0 {
				w = r.Uint64()
			}
			dst[i] = byte(w >> (8 * (i % 8)))
		}
	}
	lengths := []int{4096}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			want, got := make([]byte, n), make([]byte, n)
			byteLoop(want, seed)
			fillPattern(got, seed)
			if d := diffBytes(want, got); d != "" {
				t.Fatalf("len %d seed %d: %s", n, seed, d)
			}
		}
	}
}

// run checks seed's point once, untraced, on a fresh environment.
func run(seed uint64, cfg Config) Result {
	r, _ := Campaign(cfg, 0).Trial(NewPoint(seed, cfg), false)
	return r
}
