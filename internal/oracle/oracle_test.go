package oracle

import (
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/obs"
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
	c := Campaign(cfg, 0)
	var found fault.Finding[Op, Result]
	for seed := uint64(0); seed < 32 && !found.Violation(); seed++ {
		found = c.Trial(NewPoint(seed, cfg), false)
	}
	if !found.Violation() {
		t.Fatal("buggy checker never diverged across 32 seeds; oracle is blind")
	}
	s := c.Shrink(found)
	pt, res := s.Point, s.Result
	if res.Divergence == nil || s.Err != "" {
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
	if again := c.Trial(pt, true); again.Err != "" || again.Flight == nil || again.Result.Verdict() != res.Verdict() {
		t.Fatalf("minimal trace does not reproduce: %v", again.Result.Verdict())
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

// A violating point's flight dump is headed by its finding's line: the
// address that replays it, then what failed. A harness failure (a Check
// error, a faulted process, a replay that did not reproduce) ends the
// line with its error.
func TestReasonNamesHarnessFailures(t *testing.T) {
	const faulted = `sim: process "drain" faulted: boom`
	d := &Divergence{Seed: 7, OpIndex: 3, Op: "pin eid=1", Detail: "boom"}
	for _, c := range []struct {
		r    Result
		err  string
		want string
	}{
		{Result{}, faulted, `<none> err="sim: process \"drain\" faulted: boom"`},
		{Result{Divergence: d}, "", d.String()},
	} {
		f := fault.Finding[Op, Result]{Point: Point{Index: 7, Seed: 7}, Addr: "fuzz-smoke/oracle/7", Result: c.r, Err: c.err}
		var b strings.Builder
		if err := f.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if want := "fuzz-smoke/oracle/7 seed 0x7: " + c.want + "\n"; b.String() != want {
			t.Errorf("finding reads %q, want %q", b.String(), want)
		}
	}
	// A real violation's dump carries the same line.
	rep, err := (&Sweep{Points: func() ([]Point, error) { return []Point{NewPoint(3, Config{})}, nil },
		Check:   func(*sim.Env, Point) (Result, error) { return Result{}, errors.New(faulted) },
		Summary: func(io.Writer, *Report) error { return nil }}).Run(func(n int, fn func(int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}, "fuzz-smoke/oracle")
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 1 || v[0].Flight == nil || v[0].Flight.Reason != "fuzz-smoke/oracle/3 seed 0x3: <none> err="+strconv.Quote(faulted) || rep.Shrunk != nil {
		t.Fatalf("violations %+v; want point 3 with its line heading the dump", v)
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

// TestFuzzAuditsThePageMap plants a valid-count drift in the FTL of a
// drive in steady-state collection, one count too many on a block, as a
// relocation that failed to debit its source would leave. No read can
// see it; the audit the fuzzer runs at every power-on and every
// auditEvery ops must report it.
func TestFuzzAuditsThePageMap(t *testing.T) {
	env := sim.NewEnv()
	sc := stackConfig(true)
	s := core.New(env, sc)
	m := NewModel(ModelConfig{
		PageSize: s.PageSize(), BufBytes: sc.BABufferBytes, MaxEntries: sc.MaxEntries, Pages: s.Device().Pages(),
		WCBurstBytes: sc.MMIO.WCBurstBytes, WCBufferBursts: sc.MMIO.WCBufferBursts,
	})
	var got *Divergence
	env.Go("t", func(p *sim.Proc) {
		if d := precondition(p, s, m, 1, Config{GCActive: true}.lbaSpan()); d != nil {
			t.Errorf("precondition: %v", d)
			return
		}
		if d := audit(s); d != nil {
			t.Errorf("a clean drive fails the audit: %v", d)
			return
		}
		// validCount is the FTL's own; reach it the way a bug would.
		vc := reflect.ValueOf(s.Device().FTL()).Elem().FieldByName("validCount").Index(0)
		*(*int)(unsafe.Pointer(vc.UnsafeAddr()))++
		got = powerCycle(p, s, m)
	})
	env.Run()
	if got == nil || !strings.HasPrefix(got.Detail, "page map audit") {
		t.Fatalf("power cycle over a drifted valid count: %v, want a page map audit divergence", got)
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
	return Campaign(cfg, 0).Trial(NewPoint(seed, cfg), false).Result
}

// The model learns a loss from the stack and then predicts it: a page
// aged past the ECC budget fails its block read, the oracle learns it
// page by page, and every later read of it, alone or in a range, fails
// in both, until a write brings it back in both.
func TestModelKeepsALostPageLost(t *testing.T) {
	env := sim.NewEnv()
	fault.Install(env, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-4, RetentionPerHour: 100, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	sc := stackConfig(false)
	s := core.New(env, sc)
	m := NewModel(ModelConfig{
		PageSize: s.PageSize(), BufBytes: sc.BABufferBytes, MaxEntries: sc.MaxEntries, Pages: s.Device().Pages(),
		WCBurstBytes: sc.MMIO.WCBurstBytes, WCBufferBursts: sc.MMIO.WCBufferBursts,
	})
	env.Go("t", func(p *sim.Proc) {
		ops := []Op{
			{Kind: OpBlockWrite, LBA: 5, Pages: 1, Seed: 7},
			{Kind: OpDrain},
		}
		for _, o := range ops {
			if d := execOp(p, s, m, o); d != nil {
				t.Fatalf("%s: %v", o, d)
			}
		}
		p.Sleep(3600 * sim.Second) // LBA 5 ages past the ECC budget
		for _, o := range []Op{
			{Kind: OpBlockRead, LBA: 4, Pages: 3}, // learns the loss
			{Kind: OpBlockRead, LBA: 5, Pages: 1},
			{Kind: OpBlockRead, LBA: 3, Pages: 4},
			{Kind: OpPin, EID: 0, Off: 0, LBA: 5, Pages: 1},
			{Kind: OpBlockWrite, LBA: 5, Pages: 1, Seed: 8},
			{Kind: OpDrain},
			{Kind: OpBlockRead, LBA: 4, Pages: 3},
		} {
			if d := execOp(p, s, m, o); d != nil {
				t.Fatalf("%s: %v", o, d)
			}
			if o.Kind == OpPin && !m.lost[5] {
				t.Fatal("the model did not learn the loss of LBA 5")
			}
		}
		if len(m.lost) != 0 {
			t.Fatalf("the rewrite left %d pages lost in the model", len(m.lost))
		}
	})
	env.Run()
	if obs.Of(env).Registry().CounterValue("fault.uncorrectable_reads") == 0 {
		t.Fatal("no read was uncorrectable")
	}
}

// Stack and model agree that a deallocated page reads as zeros at once
// and after the drain, though its copy was still in the write buffer;
// that a pinned range gates the deallocate; and that a write after it
// is the page's data again. execOp audits the stack after each one.
func TestModelDeallocatesBufferedPages(t *testing.T) {
	env := sim.NewEnv()
	sc := stackConfig(false)
	s := core.New(env, sc)
	m := NewModel(ModelConfig{
		PageSize: s.PageSize(), BufBytes: sc.BABufferBytes, MaxEntries: sc.MaxEntries, Pages: s.Device().Pages(),
		WCBurstBytes: sc.MMIO.WCBurstBytes, WCBufferBursts: sc.MMIO.WCBufferBursts,
	})
	env.Go("t", func(p *sim.Proc) {
		for _, o := range []Op{
			{Kind: OpBlockWrite, LBA: 8, Pages: 4, Seed: 1},
			{Kind: OpDeallocate, LBA: 9, Pages: 2}, // still buffered
			{Kind: OpBlockRead, LBA: 8, Pages: 4},
			{Kind: OpDrain},
			{Kind: OpBlockRead, LBA: 8, Pages: 4},
			{Kind: OpPin, EID: 0, Off: 0, LBA: 11, Pages: 1},
			{Kind: OpDeallocate, LBA: 10, Pages: 2}, // gated by the pin
			{Kind: OpFlush, EID: 0},
			{Kind: OpBlockWrite, LBA: 9, Pages: 1, Seed: 2},
			{Kind: OpDeallocate, LBA: 8, Pages: 1},
			{Kind: OpBlockRead, LBA: 8, Pages: 4},
			{Kind: OpDrain},
			{Kind: OpBlockRead, LBA: 8, Pages: 4},
		} {
			if d := execOp(p, s, m, o); d != nil {
				t.Fatalf("%s: %v", o, d)
			}
		}
		for _, lba := range []uint64{8, 10} {
			if _, ok := m.blocks[lba]; ok {
				t.Errorf("the model keeps deallocated lba %d", lba)
			}
		}
	})
	env.Run()
}
