// Package histo provides a log-bucketed latency histogram for
// virtual-time measurements: constant memory, ~4 % relative error, and
// percentile queries. The paper argues BA-WAL "optimizes both tail
// latencies and SSD lifespan" (Section IV-A); the fio and bench layers
// use these histograms to make the tail observable.
package histo

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"twobssd/internal/sim"
)

// bucketsPerOctave subdivides each power of two; 16 gives ~4.3 %
// worst-case relative error on reconstructed values.
const bucketsPerOctave = 16

// maxBuckets covers 1 ns .. ~1100 s.
const maxBuckets = 64 * bucketsPerOctave / 2

// H is a latency histogram. The zero value is ready to use.
type H struct {
	counts [maxBuckets]uint64
	n      uint64
	sum    sim.Duration
	min    sim.Duration
	max    sim.Duration
}

// bucketLows[i] is the smallest duration the float rule
// int(log2(d) * bucketsPerOctave) puts in bucket i or above. Buckets no
// integer reaches (1 … 15: log2 2 is already 1) share the next reached
// bucket's bound, so walking up past them never stops on one.
var bucketLows = buildBucketLows()

func buildBucketLows() (lows [maxBuckets]sim.Duration) {
	floatRule := func(d sim.Duration) int { return int(math.Log2(float64(d)) * bucketsPerOctave) }
	for i := 1; i < maxBuckets; i++ {
		// The rule is monotone in d and puts 1<<34 past the last bucket.
		lo, hi := max(lows[i-1], 1), sim.Duration(1)<<34
		for lo < hi {
			mid := lo + (hi-lo)/2
			if floatRule(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		lows[i] = lo
	}
	return lows
}

// bucketOf maps a duration to its bucket index: int(log2(d) *
// bucketsPerOctave), clamped to the table, computed without a float.
// With d = 2^e·m, m in [1, 2), the guess 16e + (top four bits of m's
// fraction) never exceeds the answer, because log2 m >= m-1 on [1, 2),
// and falls short of it by at most two; the walk up against bucketLows
// closes the gap exactly.
func bucketOf(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	u := uint64(d)
	e := bits.Len64(u) - 1
	var frac uint64
	if e >= 4 {
		frac = u >> (e - 4) & 15
	} else {
		frac = u << (4 - e) & 15
	}
	idx := e*bucketsPerOctave + int(frac)
	if idx >= maxBuckets-1 {
		return maxBuckets - 1
	}
	for idx+1 < maxBuckets && d >= bucketLows[idx+1] {
		idx++
	}
	return idx
}

// bucketLow returns the lower bound of a bucket.
func bucketLow(idx int) sim.Duration {
	return sim.Duration(math.Exp2(float64(idx) / bucketsPerOctave))
}

// Observe records one sample.
func (h *H) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// N returns the sample count.
func (h *H) N() uint64 { return h.n }

// Sum returns the total of all samples.
func (h *H) Sum() sim.Duration { return h.sum }

// Mean returns the average sample.
func (h *H) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

// Min returns the smallest sample, or 0 on an empty histogram.
func (h *H) Min() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 on an empty histogram.
func (h *H) Max() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1).
// An empty histogram reports 0 for every quantile.
func (h *H) Quantile(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			// Clamp the reconstruction to the observed range.
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P99 and P999 are convenience accessors for common tails.
func (h *H) P50() sim.Duration { return h.Quantile(0.50) }

// P99 returns the 99th percentile.
func (h *H) P99() sim.Duration { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile.
func (h *H) P999() sim.Duration { return h.Quantile(0.999) }

// Merge folds other into h. Merging an empty histogram (or nil) is a
// no-op; merging into an empty one copies the extremes, so min/max stay
// correct whichever side is empty.
func (h *H) Merge(other *H) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// Bucket is one populated bucket of a Window: a bucket index and the
// number of samples that landed in it during the window.
type Bucket struct {
	Idx   int32  `json:"i"`
	Count uint64 `json:"c"`
}

// Window is the sparse delta between two cumulative snapshots of the
// same histogram: the samples observed during one sampling window.
// Only populated buckets are stored, so a quiet window costs nothing.
// The zero Window is the empty window; all its quantiles are 0.
type Window struct {
	N       uint64       `json:"n"`
	Sum     sim.Duration `json:"sum_ns"`
	Buckets []Bucket     `json:"buckets,omitempty"`
}

// WindowSince returns the window of samples observed since prev was
// captured from the same histogram (prev nil means "since empty").
// The caller must pass snapshots of the same H in capture order;
// counts only grow, so every delta is non-negative.
func (h *H) WindowSince(prev *H) Window {
	var w Window
	if h == nil {
		return w
	}
	for i, c := range h.counts {
		if prev != nil {
			c -= prev.counts[i]
		}
		if c > 0 {
			w.Buckets = append(w.Buckets, Bucket{Idx: int32(i), Count: c})
		}
	}
	w.N = h.n
	w.Sum = h.sum
	if prev != nil {
		w.N -= prev.n
		w.Sum -= prev.sum
	}
	return w
}

// Empty reports whether the window saw no samples.
func (w Window) Empty() bool { return w.N == 0 }

// Mean returns the average sample of the window.
func (w Window) Mean() sim.Duration {
	if w.N == 0 {
		return 0
	}
	return w.Sum / sim.Duration(w.N)
}

// Quantile returns the q-quantile of the window, reconstructed from
// bucket lower bounds (same ~4 % relative error as H.Quantile; unlike
// H, a window has no exact min/max to clamp to). Empty windows report
// 0 for every quantile.
func (w Window) Quantile(q float64) sim.Duration {
	if w.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(w.N))
	if target >= w.N {
		target = w.N - 1
	}
	var seen uint64
	for _, b := range w.Buckets {
		seen += b.Count
		if seen > target {
			return bucketLow(int(b.Idx))
		}
	}
	return bucketLow(int(w.Buckets[len(w.Buckets)-1].Idx))
}

// Merge folds other into w (bucket counts add; both bucket lists are
// sorted by index and stay sorted). Merging an empty window is a
// no-op; merging into an empty window copies.
func (w *Window) Merge(other Window) {
	if other.N == 0 {
		return
	}
	if w.N == 0 {
		w.N, w.Sum = other.N, other.Sum
		w.Buckets = append([]Bucket(nil), other.Buckets...)
		return
	}
	merged := make([]Bucket, 0, len(w.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(w.Buckets) || j < len(other.Buckets) {
		switch {
		case j == len(other.Buckets) || (i < len(w.Buckets) && w.Buckets[i].Idx < other.Buckets[j].Idx):
			merged = append(merged, w.Buckets[i])
			i++
		case i == len(w.Buckets) || other.Buckets[j].Idx < w.Buckets[i].Idx:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			merged = append(merged, Bucket{Idx: w.Buckets[i].Idx, Count: w.Buckets[i].Count + other.Buckets[j].Count})
			i++
			j++
		}
	}
	w.Buckets = merged
	w.N += other.N
	w.Sum += other.Sum
}

// Clone returns a snapshot copy of the cumulative histogram, the
// "prev" side of a future WindowSince call.
func (h *H) Clone() H {
	if h == nil {
		return H{}
	}
	return *h
}

// String summarizes the distribution.
func (h *H) String() string {
	if h.n == 0 {
		return "histo{empty}"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.n, h.Mean(), h.P50(), h.P99(), h.P999(), h.max)
}

// Bars renders a coarse ASCII distribution (for CLI output).
func (h *H) Bars(width int) string {
	if h.n == 0 {
		return "(no samples)"
	}
	// Collapse to octaves for readability.
	type row struct {
		low   sim.Duration
		count uint64
	}
	var rows []row
	for i := 0; i < maxBuckets; i += bucketsPerOctave {
		var c uint64
		for j := i; j < i+bucketsPerOctave && j < maxBuckets; j++ {
			c += h.counts[j]
		}
		if c > 0 {
			rows = append(rows, row{low: bucketLow(i), count: c})
		}
	}
	var peak uint64
	for _, r := range rows {
		if r.count > peak {
			peak = r.count
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		bar := int(uint64(width) * r.count / peak)
		fmt.Fprintf(&sb, "%10v │%-*s│ %d\n", r.low, width, strings.Repeat("█", bar), r.count)
	}
	return sb.String()
}
