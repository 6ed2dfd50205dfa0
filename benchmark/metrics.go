package main

import (
	"math"
	"sort"
)

// Metric declares one reported number. Clock says which time it is
// made of: "sim" is virtual time of the modelled drive stack and
// repeats bit for bit for a seed; "host" is wall-clock cost of the
// simulator on this machine and carries noise.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Clock  string
	What   string
}

// The end-to-end metrics, the same on every workload. Bounds are the
// share of the parent's median by which a metric may get worse; they
// are set from the spread over ten seeds (README, "Spread").
var endToEnd = []Metric{
	{"sim_op_midmean_us", "us", "lower", 0.04, "sim",
		"mean of the middle half of client-visible op latencies (open loop: from the scheduled arrival)"},
	{"sim_op_tail_us", "us", "lower", 0.20, "sim",
		"mean of the slowest 1 % of client-visible op latencies"},
	{"sim_ops_per_s", "1/s", "higher", 0.02, "sim",
		"ops completed per virtual second, first issue to last completion"},
	{"sim_nand_bytes_per_user_byte", "B/B", "lower", 0.02, "sim",
		"NAND bytes programmed on every device per user payload byte acknowledged"},
	{"sim_recovery_ms", "ms", "lower", 0.15, "sim",
		"virtual time from the power loss to the first successful op after recovery"},
	{"host_ns_per_op", "ns", "lower", 0.25, "host",
		"measured-phase wall time per op attempted"},
	{"host_allocs_per_op", "count", "lower", 0.03, "host",
		"heap allocations per op in the measured phase"},
	{"host_alloc_bytes_per_op", "B", "lower", 0.03, "host",
		"heap bytes allocated per op in the measured phase"},
	{"host_peak_rss_mb", "MB", "lower", 0.25, "host",
		"peak resident set of the workload's process (VmHWM)"},
	{"setup_s", "s", "lower", 0.25, "host",
		"wall time to build the devices, load and warm up; median of three set-ups"},
}

// The per-layer metrics, in layer order. Probe metrics come from
// driving one layer's public calls; run metrics are registry deltas of
// the traced run divided by ops.
var perLayer = []Metric{
	// sim
	{"sim.events_per_op", "count", "lower", 0, "sim", "kernel events dispatched per op (run)"},
	{"sim.host_ns_per_event", "ns", "lower", 0, "host", "lone sleeping process, no goroutine switch (probe)"},
	{"sim.allocs_per_event", "count", "lower", 0, "host", "same probe"},
	{"sim.handoff.host_ns", "ns", "lower", 0, "host", "event that resumes another process (probe)"},
	{"sim.resource.host_ns", "ns", "lower", 0, "host", "contended acquire+release (probe)"},
	{"sim.link.host_ns_per_msg", "ns", "lower", 0, "host", "message over a link between two partitions (probe)"},
	// nand
	{"nand.read.sim_us", "us", "lower", 0, "sim", "page read (probe)"},
	{"nand.program.sim_us", "us", "lower", 0, "sim", "page program (probe)"},
	{"nand.erase.sim_us", "us", "lower", 0, "sim", "block erase (probe)"},
	{"nand.read.host_ns", "ns", "lower", 0, "host", "page read (probe)"},
	{"nand.program.host_ns", "ns", "lower", 0, "host", "page program (probe)"},
	{"nand.page_programs_per_op", "count", "lower", 0, "sim", "run"},
	{"nand.page_reads_per_op", "count", "lower", 0, "sim", "run"},
	{"nand.die_busy_frac", "ratio", "lower", 0, "sim", "die occupancy since start (run)"},
	{"nand.chan_busy_frac", "ratio", "lower", 0, "sim", "channel occupancy since start (run)"},
	// ftl
	{"ftl.write.sim_us", "us", "lower", 0, "sim", "page write, no GC (probe)"},
	{"ftl.write.host_ns", "ns", "lower", 0, "host", "page write, no GC (probe)"},
	{"ftl.read.host_ns", "ns", "lower", 0, "host", "page read (probe)"},
	{"ftl.gc_write.host_ns", "ns", "lower", 0, "host", "per page relocated by GC (probe)"},
	{"ftl.gc_relocations_per_host_write", "count", "lower", 0, "sim", "run"},
	{"ftl.gc_runs_per_op", "count", "lower", 0, "sim", "run"},
	{"ftl.waf", "ratio", "lower", 0, "sim", "NAND page writes per host page write (run)"},
	// device
	{"device.read4k.sim_us", "us", "lower", 0, "sim", "probe"},
	{"device.write4k.sim_us", "us", "lower", 0, "sim", "probe"},
	{"device.flush.sim_us", "us", "lower", 0, "sim", "probe"},
	{"device.read4k.host_ns", "ns", "lower", 0, "host", "probe"},
	{"device.write4k.host_ns", "ns", "lower", 0, "host", "probe, with the drain to NAND"},
	{"device.flush.host_ns", "ns", "lower", 0, "host", "probe"},
	{"device.read_cmds_per_op", "count", "lower", 0, "sim", "run, all devices"},
	{"device.write_cmds_per_op", "count", "lower", 0, "sim", "run, all devices"},
	{"device.flush_cmds_per_op", "count", "lower", 0, "sim", "run, all devices"},
	// pcie
	{"pcie.write64.sim_ns", "ns", "lower", 0, "sim", "one 64 B MMIO store burst (probe)"},
	{"pcie.write4k.sim_ns", "ns", "lower", 0, "sim", "probe"},
	{"pcie.sync.sim_ns", "ns", "lower", 0, "sim", "clflush+mfence+write-verify read of one line (probe)"},
	{"pcie.read64.sim_ns", "ns", "lower", 0, "sim", "probe"},
	{"pcie.write64.host_ns", "ns", "lower", 0, "host", "probe"},
	{"pcie.sync.host_ns", "ns", "lower", 0, "host", "probe"},
	{"pcie.mmio_writes_per_op", "count", "lower", 0, "sim", "run"},
	{"pcie.syncs_per_op", "count", "lower", 0, "sim", "run"},
	{"pcie.wc_evictions_per_op", "count", "lower", 0, "sim", "run"},
	// core
	{"core.ba_pin.sim_us", "us", "lower", 0, "sim", "a quarter of the BA-buffer (probe)"},
	{"core.ba_flush.sim_us", "us", "lower", 0, "sim", "a quarter of the BA-buffer (probe)"},
	{"core.ba_sync.sim_ns", "ns", "lower", 0, "sim", "probe"},
	{"core.read_dma4k.sim_us", "us", "lower", 0, "sim", "probe"},
	{"core.ba_flush.host_ns", "ns", "lower", 0, "host", "probe"},
	{"core.gate_check.host_ns", "ns", "lower", 0, "host", "block read refused after a full table walk (probe)"},
	{"core.flushes_per_op", "count", "lower", 0, "sim", "run"},
	{"core.pages_flushed_per_op", "count", "lower", 0, "sim", "run"},
	{"core.gate_rejects", "count", "lower", 0, "sim", "run, whole count"},
	{"core.power_loss.sim_ms", "ms", "lower", 0, "sim", "capacitor dump of a full-spec drive (probe)"},
	{"core.power_on.sim_ms", "ms", "lower", 0, "sim", "restore + re-arm (probe)"},
	// vfs
	{"vfs.write_at.host_ns", "ns", "lower", 0, "host", "aligned 4 KB (probe)"},
	{"vfs.read_at.host_ns", "ns", "lower", 0, "host", "aligned 4 KB (probe)"},
	{"vfs.sync.sim_us", "us", "lower", 0, "sim", "probe"},
	// wal
	{"wal.ba.commit.sim_ns", "ns", "lower", 0, "sim", "append+commit of one kv record, BA mode (probe)"},
	{"wal.sync.commit.sim_us", "us", "lower", 0, "sim", "same, block write + FLUSH (probe)"},
	{"wal.ba.commit.host_ns", "ns", "lower", 0, "host", "probe"},
	{"wal.sync.commit.host_ns", "ns", "lower", 0, "host", "probe"},
	{"wal.ba.switch.sim_us", "us", "lower", 0, "sim", "first commit on a fresh log: pins a BA-buffer quarter (probe)"},
	{"wal.recover.sim_ms", "ms", "lower", 0, "sim", "scan of 4096 records (probe)"},
	{"wal.recover.host_ms", "ms", "lower", 0, "host", "probe"},
	{"wal.commits_per_op", "count", "lower", 0, "sim", "run"},
	{"wal.flushes_per_commit", "count", "lower", 0, "sim", "run"},
	{"wal.pad_bytes_share", "ratio", "lower", 0, "sim", "padding over bytes appended (run)"},
	{"wal.commit_time_share", "ratio", "lower", 0, "sim", "time inside Commit over client op time (run)"},
	{"wal.seg.rotate.sim_us", "us", "lower", 0, "sim", "mean segment rotation (run, fleet only)"},
	{"wal.seg.group_flushes_per_commit", "count", "lower", 0, "sim", "run, fleet only"},
	{"wal.seg.tail_lag.sim_us", "us", "lower", 0, "sim", "commit to follower apply, median (run, fleet only)"},
	// lsm
	{"lsm.put.host_ns", "ns", "lower", 0, "host", "probe, kv-ba stack"},
	{"lsm.get_mem.host_ns", "ns", "lower", 0, "host", "memtable hit (probe)"},
	{"lsm.get_sst.host_ns", "ns", "lower", 0, "host", "lookup that reaches the SSTs (probe)"},
	{"lsm.get_sst.sim_us", "us", "lower", 0, "sim", "probe"},
	{"lsm.flush.sim_ms", "ms", "lower", 0, "sim", "one memtable to an L0 SST (probe)"},
	{"lsm.compaction.sim_ms", "ms", "lower", 0, "sim", "L0 compaction of four tables (probe)"},
	{"lsm.cache_hit_share", "ratio", "higher", 0, "sim", "block cache (run)"},
	{"lsm.flushes", "count", "lower", 0, "sim", "run, whole count"},
	{"lsm.compactions", "count", "lower", 0, "sim", "run, whole count"},
	{"lsm.stall_us_per_op", "us", "lower", 0, "sim", "writer stalls on the two-memtable rule (run)"},
	// client view of the traced run, by kind
	{"client.op_p50_us", "us", "lower", 0, "sim", "exact median (run)"},
	{"client.op_p99_us", "us", "lower", 0, "sim", "run"},
	{"client.op_p999_us", "us", "lower", 0, "sim", "run"},
	{"client.read_p99_us", "us", "lower", 0, "sim", "run"},
	{"client.write_p99_us", "us", "lower", 0, "sim", "run"},
	// fleet
	{"fleet.replag_p50_us", "us", "lower", 0, "sim", "run"},
	{"fleet.replag_max_us", "us", "lower", 0, "sim", "run"},
	{"fleet.qos_wait_p99_us", "us", "lower", 0, "sim", "worst tenant (run)"},
	{"fleet.evictions_per_op", "count", "lower", 0, "sim", "run"},
	{"fleet.leases_per_op", "count", "lower", 0, "sim", "run"},
	{"fleet.fairness_min", "ratio", "higher", 0, "sim", "lowest Jain index over devices (run)"},
	{"fleet.dropped_share", "ratio", "lower", 0, "sim", "run"},
	{"fleet.retries_per_op", "count", "lower", 0, "sim", "run"},
	{"fleet.degraded_share", "ratio", "lower", 0, "sim", "completed without a follower (run)"},
	{"fleet.takeover_share", "ratio", "lower", 0, "sim", "rerouted to the follower (run)"},
	{"fleet.lost", "count", "lower", 0, "sim", "run"},
	{"fleet.phantom", "count", "lower", 0, "sim", "run"},
	{"fleet.host_ns_per_event", "ns", "lower", 0, "host", "run"},
	// attribution of the traced run's wall time
	{"sim.host_share", "ratio", "lower", 0, "host", "events x kernel cost per event"},
	{"nand.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"ftl.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"device.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"pcie.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"core.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"vfs.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"wal.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"lsm.host_share", "ratio", "lower", 0, "host", "calls x self cost"},
	{"fleet.host_share", "ratio", "lower", 0, "host", "what the layers below do not explain of a fleet round"},
	{"unattributed.host_share", "ratio", "lower", 0, "host", "driver, shadow state, verification, model error"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "host", "traced over untraced host_ns_per_op"},
	{"fail_share", "ratio", "lower", 0, "sim", "failed over attempted ops in the traced run"},
}

// ---- statistics over exact samples (sorted ascending) ----

// quantile returns the sample at rank q of a sorted slice.
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// bandMean is the mean of the samples ranked in [qlo, qhi).
func bandMean(sorted []int32, qlo, qhi float64) float64 {
	lo, hi := int(qlo*float64(len(sorted))), int(qhi*float64(len(sorted)))
	if hi > len(sorted) {
		hi = len(sorted)
	}
	if hi <= lo {
		return quantile(sorted, qlo)
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// tailPercentiles is the ladder the picker chooses from.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// highestPercentile picks the highest percentile of the ladder that
// still has at least ten samples beyond it; ok is false below twenty
// samples, where not even the median has.
func highestPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-6 { // 1-p is not exact in binary
			q, ok = p, true
		}
	}
	return q, ok
}

func sortSamples(s []int32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// ---- the same statistics over a bucketed histogram ----
//
// Samples are taken as spread evenly inside their bucket (buckets are
// about 4 % wide), the top bucket ending at the exact maximum.

func (h Hist) bucketHi(i int) float64 {
	hi := h.Buckets[i].HiNs
	if i == len(h.Buckets)-1 && float64(h.MaxNs) < hi && float64(h.MaxNs) >= h.Buckets[i].LoNs {
		hi = float64(h.MaxNs)
	}
	return hi
}

// Quantile interpolates the q-quantile.
func (h Hist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := q * float64(h.N)
	var seen float64
	for i, b := range h.Buckets {
		if seen+float64(b.N) >= target {
			f := (target - seen) / float64(b.N)
			return b.LoNs + f*(h.bucketHi(i)-b.LoNs)
		}
		seen += float64(b.N)
	}
	return float64(h.MaxNs)
}

// BandMean is the mean of the samples ranked in [qlo, qhi).
func (h Hist) BandMean(qlo, qhi float64) float64 {
	if h.N == 0 {
		return 0
	}
	lo, hi := qlo*float64(h.N), qhi*float64(h.N)
	var seen, sum, cnt float64
	for i, b := range h.Buckets {
		n := float64(b.N)
		a, z := math.Max(lo, seen), math.Min(hi, seen+n)
		if z > a {
			// The ranks [a, z) of this bucket cover this part of its width.
			w := h.bucketHi(i) - b.LoNs
			from, to := b.LoNs+(a-seen)/n*w, b.LoNs+(z-seen)/n*w
			sum += (z - a) * (from + to) / 2
			cnt += z - a
		}
		seen += n
	}
	if cnt == 0 {
		return h.Quantile(qlo)
	}
	return sum / cnt
}

// Merge adds other's samples (bucket bounds identify buckets).
func (h *Hist) Merge(other Hist) {
	h.N += other.N
	h.SumNs += other.SumNs
	if other.MaxNs > h.MaxNs {
		h.MaxNs = other.MaxNs
	}
	byLo := map[float64]int{}
	for i, b := range h.Buckets {
		byLo[b.LoNs] = i
	}
	for _, b := range other.Buckets {
		if i, ok := byLo[b.LoNs]; ok {
			h.Buckets[i].N += b.N
		} else {
			h.Buckets = append(h.Buckets, b)
		}
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].LoNs < h.Buckets[j].LoNs })
}

// ---- spread across runs ----

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method), which is what
// the benchmark's acceptance check uses.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
