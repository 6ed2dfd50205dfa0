package histo

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"twobssd/internal/sim"
)

func TestEmpty(t *testing.T) {
	var h H
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	if h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatalf("empty extremes: min=%v max=%v sum=%v", h.Min(), h.Max(), h.Sum())
	}
	// Every quantile, including the clamped edges, is 0 when empty.
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("Quantile(%v) = %v on empty", q, v)
		}
	}
	if h.String() != "histo{empty}" {
		t.Fatalf("String = %q", h.String())
	}
	if h.Bars(10) != "(no samples)" {
		t.Fatal("Bars on empty")
	}
}

func TestSingleSample(t *testing.T) {
	var h H
	h.Observe(1000)
	if h.N() != 1 || h.Mean() != 1000 || h.Min() != 1000 || h.Max() != 1000 {
		t.Fatalf("h = %s", h.String())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 1000 {
			t.Fatalf("Quantile(%v) = %v", q, v)
		}
	}
}

func TestNegativeClamped(t *testing.T) {
	var h H
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("min = %v", h.Min())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	var h H
	rng := rand.New(rand.NewSource(1))
	var samples []sim.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform over 100ns .. 1ms.
		d := sim.Duration(100 * (1 << rng.Intn(14)))
		d += sim.Duration(rng.Int63n(int64(d)))
		h.Observe(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		ratio := float64(got) / float64(exact)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("q=%v: got %v exact %v (ratio %.3f)", q, got, exact, ratio)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b H
	for i := 1; i <= 100; i++ {
		a.Observe(sim.Duration(i))
	}
	for i := 1000; i <= 2000; i += 10 {
		b.Observe(sim.Duration(i))
	}
	n := a.N() + b.N()
	a.Merge(&b)
	if a.N() != n {
		t.Fatalf("merged n = %d, want %d", a.N(), n)
	}
	if a.Min() != 1 || a.Max() != 2000 {
		t.Fatalf("merged range [%v,%v]", a.Min(), a.Max())
	}
	var empty H
	a.Merge(&empty) // no-op
	if a.N() != n {
		t.Fatal("merging empty changed n")
	}
	if a.Min() != 1 || a.Max() != 2000 {
		t.Fatalf("merging empty changed range to [%v,%v]", a.Min(), a.Max())
	}
	a.Merge(nil) // also a no-op
	if a.N() != n {
		t.Fatal("merging nil changed n")
	}
}

// Merge must combine min/max correctly when either side is empty — the
// registry aggregation path merges many histograms, some untouched.
func TestMergeEmptySides(t *testing.T) {
	var src H
	src.Observe(500)
	src.Observe(9000)

	// Empty destination adopts the source extremes (the zero-valued
	// min/max of the empty side must not win).
	var dst H
	dst.Merge(&src)
	if dst.N() != 2 || dst.Min() != 500 || dst.Max() != 9000 || dst.Sum() != 9500 {
		t.Fatalf("empty-dst merge: n=%d min=%v max=%v sum=%v",
			dst.N(), dst.Min(), dst.Max(), dst.Sum())
	}
	if dst.Quantile(1) != 9000 {
		t.Fatalf("merged p100 = %v", dst.Quantile(1))
	}

	// Both sides empty stays empty and well-defined.
	var a, b H
	a.Merge(&b)
	if a.N() != 0 || a.Min() != 0 || a.Max() != 0 || a.Quantile(0.99) != 0 {
		t.Fatalf("empty-empty merge: %s", a.String())
	}

	// A merged-into histogram keeps exact sums for Mean.
	if dst.Mean() != 4750 {
		t.Fatalf("merged mean = %v", dst.Mean())
	}
}

func TestBarsRender(t *testing.T) {
	var h H
	for i := 0; i < 100; i++ {
		h.Observe(500)
		h.Observe(50000)
	}
	out := h.Bars(20)
	if !strings.Contains(out, "█") {
		t.Fatalf("no bars in:\n%s", out)
	}
	if strings.Count(out, "\n") < 2 {
		t.Fatalf("expected >= 2 rows:\n%s", out)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestPropertyQuantileMonotone(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h H
		for _, r := range raw {
			h.Observe(sim.Duration(r % 10_000_000))
		}
		prev := sim.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean equals the true mean exactly (sum is tracked, not
// reconstructed from buckets).
func TestPropertyExactMean(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h H
		var sum int64
		for _, r := range raw {
			h.Observe(sim.Duration(r))
			sum += int64(r)
		}
		return h.Mean() == sim.Duration(sum/int64(len(raw)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Windowed-delta edges (PR 6): empty window, single-sample window, and
// merges involving empty windows. PR 1 fixed empty-histogram semantics
// once; these pin the same rules for per-window snapshots.

func TestWindowEmpty(t *testing.T) {
	var h H
	h.Observe(100)
	h.Observe(200)
	prev := h.Clone()
	w := h.WindowSince(&prev) // nothing observed since the snapshot
	if !w.Empty() || w.N != 0 || w.Sum != 0 || len(w.Buckets) != 0 {
		t.Fatalf("empty window not empty: %+v", w)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := w.Quantile(q); got != 0 {
			t.Fatalf("empty window q%.2f = %v, want 0", q, got)
		}
	}
	if w.Mean() != 0 {
		t.Fatalf("empty window mean = %v, want 0", w.Mean())
	}
}

func TestWindowSingleSample(t *testing.T) {
	var h H
	h.Observe(500)
	prev := h.Clone()
	h.Observe(1000)
	w := h.WindowSince(&prev)
	if w.N != 1 || w.Sum != 1000 {
		t.Fatalf("single-sample window n=%d sum=%v, want 1/1000", w.N, w.Sum)
	}
	// Every quantile of a one-sample window is that sample's bucket
	// (log-bucketed, so reconstruction carries ~4% error).
	lo, hi := sim.Duration(float64(1000)*0.96), sim.Duration(1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := w.Quantile(q)
		if got < lo || got > hi {
			t.Fatalf("single-sample q%.2f = %v, want within [%v,%v]", q, got, lo, hi)
		}
	}
	if w.Mean() != 1000 {
		t.Fatalf("single-sample mean = %v, want 1000 (sums are exact)", w.Mean())
	}
}

func TestWindowSinceNil(t *testing.T) {
	var h H
	h.Observe(100)
	w := h.WindowSince(nil)
	if w.N != 1 || w.Sum != 100 {
		t.Fatalf("window since nil = %+v, want the full histogram", w)
	}
}

func TestWindowMergeOfEmpty(t *testing.T) {
	var h H
	h.Observe(100)
	h.Observe(300)
	full := h.WindowSince(nil)

	// empty.Merge(full) copies; full.Merge(empty) is a no-op.
	var a Window
	a.Merge(full)
	if a.N != 2 || a.Sum != 400 || len(a.Buckets) != len(full.Buckets) {
		t.Fatalf("merge into empty = %+v, want copy of %+v", a, full)
	}
	b := full
	before := b.N
	b.Merge(Window{})
	if b.N != before || b.Sum != 400 {
		t.Fatalf("merge of empty changed window: %+v", b)
	}
	// And two empties stay empty.
	var c, d Window
	c.Merge(d)
	if !c.Empty() {
		t.Fatalf("empty+empty = %+v", c)
	}
}

func TestWindowMergeInterleaved(t *testing.T) {
	var h1, h2 H
	for _, v := range []sim.Duration{10, 1000, 100000} {
		h1.Observe(v)
	}
	for _, v := range []sim.Duration{100, 1000, 10000} {
		h2.Observe(v)
	}
	w := h1.WindowSince(nil)
	w.Merge(h2.WindowSince(nil))
	if w.N != 6 || w.Sum != 112110 {
		t.Fatalf("merged window n=%d sum=%v, want 6/112110", w.N, w.Sum)
	}
	// Bucket list stays sorted and counts add where both sides hit the
	// same bucket (1000 appears in both).
	last := int32(-1)
	var total uint64
	for _, b := range w.Buckets {
		if b.Idx <= last {
			t.Fatalf("bucket indexes not strictly sorted: %+v", w.Buckets)
		}
		last = b.Idx
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
	// Window quantiles match the equivalent cumulative histogram's
	// bucket reconstruction.
	var all H
	all.Merge(&h1)
	all.Merge(&h2)
	if got, want := w.Quantile(0.5), all.Quantile(0.5); got != want {
		t.Fatalf("merged window p50 = %v, cumulative p50 = %v", got, want)
	}
}

// refBucket is the float rule bucketOf must reproduce for every int64.
func refBucket(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	idx := int(math.Log2(float64(d)) * bucketsPerOctave)
	if idx >= maxBuckets {
		idx = maxBuckets - 1
	}
	return idx
}

func TestBucketOfMatchesFloatRule(t *testing.T) {
	check := func(d sim.Duration) {
		t.Helper()
		if got, want := bucketOf(d), refBucket(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, float rule says %d", d, got, want)
		}
	}
	for _, d := range []sim.Duration{0, -1, -1 << 40, math.MinInt64, 1, 2, 3, math.MaxInt64} {
		check(d)
	}
	// Every bucket boundary, ±2 000: where a wrong table or a guess walked
	// the wrong way shows.
	for i := 0; i <= maxBuckets; i++ {
		b := sim.Duration(math.Exp2(float64(i) / bucketsPerOctave))
		for d := b - 2000; d <= b+2000; d++ {
			check(d)
		}
	}
	// A seeded sweep of every octave of int64.
	rng := rand.New(rand.NewSource(42))
	for e := 0; e < 63; e++ {
		lo := int64(1) << e
		for k := 0; k < 2000; k++ {
			check(sim.Duration(lo + rng.Int63n(lo)))
		}
	}
}

var sinkH H

func BenchmarkObserve(b *testing.B) {
	// Durations spread over 1 ns … ~1 s, as a latency histogram sees them.
	var ds [1024]sim.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range ds {
		ds[i] = sim.Duration(1) << rng.Intn(30)
		ds[i] += sim.Duration(rng.Int63n(int64(ds[i])))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkH.Observe(ds[i&(len(ds)-1)])
	}
}
