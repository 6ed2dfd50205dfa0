package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nominalSeconds is the run length the op counts below are sized for:
// at scale 1 a measured phase takes about this long on the 2-CPU
// sandbox. Op counts are always fixed in advance from the scale, never
// cut off by a timer, so virtual-time results repeat exactly.
const nominalSeconds = 15

// Workload is one named set of inputs.
type Workload struct {
	Name string
	Why  string
	Run  func(o RunOpts) *RunResult
}

var workloads = []Workload{
	{"kv-ba", "YCSB-A on the LSM engine, log committed over the byte path (MMIO + BA_SYNC): pcie/core/wal do the commit work, device/ftl/nand see only flush and compaction",
		func(o RunOpts) *RunResult { return runKV("kv-ba", KVBA, o) }},
	{"kv-block", "the same engine, keys and op stream with the log committed by block write + FLUSH: device/ftl/nand do the commit work, pcie/core are bypassed",
		func(o RunOpts) *RunResult { return runKV("kv-block", KVBlock, o) }},
	{"blk-mixed", "70/30 random 4 KB reads/writes on the raw block path of a 90 % full drive in steady-state GC, LBA checker on: ftl/nand/device do everything, wal/lsm/pcie nothing",
		runBlk},
	{"fleet-failover", "open-loop tenants on 4 replicated devices with contended QoS slots and a primary power loss per round: links, segmented-log tailing, arbitration and failover do the work",
		runFleet},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// RunOpts sizes and seeds one run.
type RunOpts struct {
	Seed      int64
	Measured  float64 // scale of the measured phase (1 = nominalSeconds)
	Setup     float64 // scale of the warm-up part of set-up (1 = full)
	SetupReps int     // set-ups timed; the measured phase runs on the last
	Tracer    *Tracer // nil = untraced
	// Limit, when set, steps one size outside today's working envelope
	// to reproduce a known limit of the repository (README). Results
	// of such a run are not benchmark results.
	Limit string
}

// The known limits a run can be asked to reproduce.
const (
	limitLSMOverlap    = "lsm-overlap"    // kv-*: 20 000 records instead of 10 000
	limitFleetLost     = "fleet-lost"     // fleet-failover: 25 000 arrivals per tenant and round
	limitGCRace        = "gc-race"        // blk-mixed: the profile's 64 drain workers instead of 1
	limitDirtyPowerCut = "dirty-powercut" // blk-mixed: power loss without draining the write buffer
)

var limits = []string{limitLSMOverlap, limitFleetLost, limitGCRace, limitDirtyPowerCut}

// RunResult is what one run of one workload produced.
type RunResult struct {
	Workload  string
	Attempted int64
	Failed    int64
	Problems  []string // why the run is not correct, if it is not

	E2E    map[string]float64 // end-to-end metrics by name
	SetupS []float64          // each timed set-up

	// Measured-phase raw material for the per-layer table.
	Delta              Counts             // registry counters of the measured phase, gauges at its end
	Layer              map[string]float64 // per-layer values only the driver knows (lsm.*, client.*, fleet.*)
	Events             uint64
	WallNs             int64
	OpTimeNs           int64   // sum of client-visible op latencies
	LSMOps, LSMLookups float64 // engine ops and SST block lookups (kv workloads)
	// ProbeAs names the probe variant that matches this run's
	// configuration, where it differs from the default one.
	ProbeAs map[string]string

	Samples    int     // latency samples behind the tail metrics
	TailQ      float64 // highest percentile with >= 10 samples beyond it
	TailQNs    float64
	P50Ns      float64
	P99Ns      float64
	StreamHash uint64 // hash of the issued op stream (kinds + keys)
	Notes      []string
}

func newResult(name string) *RunResult {
	return &RunResult{
		Workload: name, E2E: map[string]float64{}, Layer: map[string]float64{},
	}
}

// fail counts n failed ops and keeps the reason: the first nineteen
// reasons and the latest one, which is where a simulator fault lands.
func (r *RunResult) fail(n int64, format string, a ...any) {
	r.Failed += n
	msg := fmt.Sprintf(format, a...)
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, msg)
	} else {
		r.Problems[19] = msg
	}
}

func (r *RunResult) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// hostMeter brackets a measured phase on the host's clocks.
type hostMeter struct {
	t0 time.Time
	m0 runtime.MemStats
}

func startMeter() *hostMeter {
	m := &hostMeter{}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

func (m *hostMeter) stop() (wallNs int64, mallocs, bytes uint64) {
	wallNs = int64(time.Since(m.t0))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return wallNs, m1.Mallocs - m.m0.Mallocs, m1.TotalAlloc - m.m0.TotalAlloc
}

func (r *RunResult) setHost(wallNs int64, mallocs, bytes uint64) {
	ops := float64(r.Attempted)
	r.WallNs = wallNs
	r.E2E["host_ns_per_op"] = float64(wallNs) / ops
	r.E2E["host_allocs_per_op"] = float64(mallocs) / ops
	r.E2E["host_alloc_bytes_per_op"] = float64(bytes) / ops
}

// setLatency fills the latency metrics from exact samples.
func (r *RunResult) setLatency(all, reads, writes []int32) {
	sortSamples(all)
	sortSamples(reads)
	sortSamples(writes)
	r.Samples = len(all)
	r.E2E["sim_op_midmean_us"] = bandMean(all, 0.25, 0.75) / 1e3
	r.E2E["sim_op_tail_us"] = bandMean(all, 0.99, 1) / 1e3
	r.P50Ns, r.P99Ns = quantile(all, 0.5), quantile(all, 0.99)
	if q, ok := highestPercentile(len(all)); ok {
		r.TailQ, r.TailQNs = q, quantile(all, q)
	}
	r.Layer["client.op_p50_us"] = r.P50Ns / 1e3
	r.Layer["client.op_p99_us"] = r.P99Ns / 1e3
	r.Layer["client.op_p999_us"] = quantile(all, 0.999) / 1e3
	r.Layer["client.read_p99_us"] = quantile(reads, 0.99) / 1e3
	r.Layer["client.write_p99_us"] = quantile(writes, 0.99) / 1e3
	for _, v := range all {
		r.OpTimeNs += int64(v)
	}
}

// timedSetups runs build SetupReps times and records each wall time;
// the measured phase runs on what the last build left. Between builds
// discard closes the previous stack and its memory is returned, so the
// peak resident set is one stack's.
func timedSetups(r *RunResult, o RunOpts, build func() error, discard func()) error {
	reps := o.SetupReps
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	r.E2E["setup_s"] = median(r.SetupS)
	return nil
}

// phase is one run of the closed-loop clients: their latency samples,
// op-stream hashes and progress.
type phase struct {
	keep               bool // warm-up phases keep no samples
	all, reads, writes []int32
	firstIssue, lastNs int64
	hashes             []streamHash
	done               int64
}

func newPhase(clients, ops int, readShare float64, keep bool, now int64) *phase {
	ph := &phase{keep: keep, hashes: make([]streamHash, clients), firstIssue: now}
	if keep {
		ph.all = make([]int32, 0, ops)
		ph.reads = make([]int32, 0, int(float64(ops)*readShare)+4096)
		ph.writes = make([]int32, 0, int(float64(ops)*(1-readShare))+4096)
	}
	return ph
}

// record books one finished op.
func (ph *phase) record(read bool, ns int64) {
	ph.done++
	if !ph.keep {
		return
	}
	ph.all = append(ph.all, int32(ns))
	if read {
		ph.reads = append(ph.reads, int32(ns))
	} else {
		ph.writes = append(ph.writes, int32(ns))
	}
}

// clientDone notes a client's last completion.
func (ph *phase) clientDone(now int64) {
	if now > ph.lastNs {
		ph.lastNs = now
	}
}

// setPhase fills what a measured closed-loop phase determines.
func (r *RunResult) setPhase(ph *phase) {
	r.StreamHash = combineHashes(ph.hashes)
	r.setLatency(ph.all, ph.reads, ph.writes)
	if span := ph.lastNs - ph.firstIssue; span > 0 {
		r.E2E["sim_ops_per_s"] = float64(ph.done) / (float64(span) / 1e9)
	}
}

// clientSeed derives the seed of one client's stream in one phase.
func clientSeed(seed int64, phase, client int) int64 {
	return seed*1000003 + int64(phase)*7919 + int64(client)*104729
}

type streamHash struct{ h uint64 }

func (s *streamHash) add(kind byte, key uint64) {
	const prime = 1099511628211
	if s.h == 0 {
		s.h = 14695981039346656037
	}
	s.h = (s.h ^ uint64(kind)) * prime
	for i := 0; i < 8; i++ {
		s.h = (s.h ^ (key >> (8 * i) & 0xFF)) * prime
	}
}

func combineHashes(hs []streamHash) uint64 {
	f := fnv.New64a()
	for _, h := range hs {
		var b [8]byte
		for i := range b {
			b[i] = byte(h.h >> (8 * i))
		}
		f.Write(b[:])
	}
	return f.Sum64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// simSignature renders everything of a result that must repeat bit for
// bit for a seed: the sim_* metrics, the registry deltas and the driver
// counts.
func (r *RunResult) simSignature() string {
	var lines []string
	for k, v := range r.E2E {
		if strings.HasPrefix(k, "sim_") {
			lines = append(lines, fmt.Sprintf("%s=%v", k, v))
		}
	}
	for k, v := range r.Delta.C {
		lines = append(lines, fmt.Sprintf("c:%s=%d", k, v))
	}
	for k, v := range r.Layer {
		if !strings.Contains(k, "host") {
			lines = append(lines, fmt.Sprintf("l:%s=%v", k, v))
		}
	}
	lines = append(lines, fmt.Sprintf("events=%d attempted=%d failed=%d stream=%x", r.Events, r.Attempted, r.Failed, r.StreamHash))
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Sub returns the counters and histogram totals accumulated since prev
// (gauges are the current reading).
func (c Counts) Sub(prev Counts) Counts {
	d := Counts{C: map[string]uint64{}, G: c.G, HistN: map[string]uint64{}, HistSum: map[string]int64{}}
	for k, v := range c.C {
		d.C[k] = v - prev.C[k]
	}
	for k, v := range c.HistN {
		d.HistN[k] = v - prev.HistN[k]
	}
	for k, v := range c.HistSum {
		d.HistSum[k] = v - prev.HistSum[k]
	}
	return d
}

// Add accumulates other into c (gauges: last reading wins).
func (c *Counts) Add(other Counts) {
	if c.C == nil {
		*c = Counts{C: map[string]uint64{}, G: map[string]float64{}, HistN: map[string]uint64{}, HistSum: map[string]int64{}}
	}
	for k, v := range other.C {
		c.C[k] += v
	}
	for k, v := range other.G {
		c.G[k] = v
	}
	for k, v := range other.HistN {
		c.HistN[k] += v
	}
	for k, v := range other.HistSum {
		c.HistSum[k] += v
	}
}
