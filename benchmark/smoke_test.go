package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeScale sizes the whole-benchmark smoke run: all four workloads,
// untraced and traced, and the probes, in a few seconds.
const smokeScale = 1.0 / 200

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// printedMetrics parses the "metric <name> <value> <unit> ..." lines.
func printedMetrics(t *testing.T, out string) map[string][]string {
	t.Helper()
	seen := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" {
			seen[f[1]] = append(seen[f[1]], f[3])
		}
	}
	return seen
}

func checkPrinted(t *testing.T, what, out string, decl []Metric) {
	t.Helper()
	seen := printedMetrics(t, out)
	for _, m := range decl {
		switch units := seen[m.Name]; {
		case len(units) != 1:
			t.Errorf("%s: %s printed %d times, want once", what, m.Name, len(units))
		case units[0] != m.Unit:
			t.Errorf("%s: %s printed with unit %q, want %q", what, m.Name, units[0], m.Unit)
		}
	}
	if len(seen) != len(decl) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(seen), len(decl))
	}
}

func checkResultLine(t *testing.T, what, out string, r *RunResult, decl []Metric) {
	t.Helper()
	res, err := lastResult([]byte(out))
	if err != nil {
		t.Fatalf("%s: last line is not a result: %v", what, err)
	}
	if res.Attempted != r.Attempted || res.Failed != r.Failed || res.Correct != r.Correct() {
		t.Errorf("%s: result line says %d/%d correct=%v, run says %d/%d correct=%v",
			what, res.Failed, res.Attempted, res.Correct, r.Failed, r.Attempted, r.Correct())
	}
	if len(res.Metrics) != len(decl) {
		t.Errorf("%s: result line has %d metrics, want %d", what, len(res.Metrics), len(decl))
	}
	for _, m := range decl {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: result line lacks %s in %s", what, m.Name, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	ps, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		// Untraced: every end-to-end metric, once, with its unit.
		r := w.Run(RunOpts{Seed: 1, Measured: smokeScale, Setup: smokeScale, SetupReps: 1})
		r.E2E["host_peak_rss_mb"] = peakRSSMB()
		if !r.Correct() {
			t.Errorf("%s: not correct: %v", w.Name, r.Problems)
		}
		var out bytes.Buffer
		printEndToEnd(&out, r, 1)
		if code := emitResult(&out, r, endToEnd, r.E2E); code != 0 {
			t.Errorf("%s: emitResult returned %d", w.Name, code)
		}
		checkPrinted(t, w.Name, out.String(), endToEnd)
		checkResultLine(t, w.Name, out.String(), r, endToEnd)
		for _, m := range endToEnd {
			if m.Name == "sim_nand_bytes_per_user_byte" && w.Name == "kv-ba" {
				continue // no memtable flush falls into so short a run
			}
			if v := r.E2E[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
		if !strings.Contains(out.String(), "fail_share 0 (ops_attempted") {
			t.Errorf("%s: fail_share line missing or not 0:\n%s", w.Name, out.String())
		}

		// Traced: every per-layer metric, once; shares sum to one; the
		// trace file is valid JSON.
		tr, table, err := tracedRun(w, 1, smokeScale, smokeScale, dir, ps)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		out.Reset()
		printLayers(&out, tr, table, 1)
		emitResult(&out, tr, perLayer, table)
		checkPrinted(t, w.Name+" traced", out.String(), perLayer)
		checkResultLine(t, w.Name+" traced", out.String(), tr, perLayer)
		if got, want := table["fail_share"], float64(tr.Failed)/float64(tr.Attempted); got != want {
			t.Errorf("%s: fail_share %v does not match the counts (%v)", w.Name, got, want)
		}
		var sum float64
		for _, l := range append(append([]string{}, layers...), "unattributed") {
			sum += table[l+".host_share"]
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: host shares sum to %v", w.Name, sum)
		}
		data, err := os.ReadFile(filepath.Join(dir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %d events, err %v", w.Name, len(trace.TraceEvents), err)
		}

		// Bypass predictions: a layer the workload does not touch reads
		// zero or is absent.
		bypassed := map[string][]string{
			"kv-block":  {"pcie.mmio_writes_per_op", "pcie.syncs_per_op", "core.flushes_per_op"},
			"blk-mixed": {"pcie.mmio_writes_per_op", "pcie.syncs_per_op", "wal.commits_per_op"},
		}
		for _, name := range bypassed[w.Name] {
			if v := table[name]; v != 0 {
				t.Errorf("%s: %s = %v, want 0 on a workload that bypasses the layer", w.Name, name, v)
			}
		}
		_, hasFleet := table["fleet.leases_per_op"]
		if hasFleet != (w.Name == "fleet-failover") {
			t.Errorf("%s: fleet.* present = %v", w.Name, hasFleet)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, metricName)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
	var setup *Metric
	for i := range endToEnd {
		if endToEnd[i].Bound <= 0 || endToEnd[i].Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", endToEnd[i].Name, endToEnd[i].Bound)
		}
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestManifest holds BENCHMARK.json at the repository root to the
// declarations in this package.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true},
		{10000, 0.999, true}, {1000000, 0.99999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	s := make([]int32, 100)
	for i := range s {
		s[i] = int32(i + 1) // 1..100
	}
	if got := quantile(s, 0.5); got != 51 {
		t.Errorf("quantile 0.5 = %v, want 51", got)
	}
	if got := bandMean(s, 0.25, 0.75); got != 50.5 { // 26..75
		t.Errorf("midmean = %v, want 50.5", got)
	}
	if got := bandMean(s, 0.99, 1); got != 100 {
		t.Errorf("tail mean = %v, want 100", got)
	}
	// A histogram with the same samples spread over buckets agrees.
	h := Hist{N: 100, MaxNs: 100, Buckets: []HistBucket{{0, 50, 50}, {50, 100, 50}}}
	if got := h.Quantile(0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("hist quantile 0.5 = %v, want 50", got)
	}
	if got := h.BandMean(0.25, 0.75); math.Abs(got-50) > 1e-9 {
		t.Errorf("hist midmean = %v, want 50", got)
	}
	// Python's statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, SimStart: 0, SimEnd: 100},   // root
		{ID: 1, Parent: 0, SimStart: 10, SimEnd: 30},    // child
		{ID: 2, Parent: 0, SimStart: 20, SimEnd: 50},    // overlaps child 1: counts once
		{ID: 3, Parent: 2, SimStart: 25, SimEnd: 35},    // grandchild: not the root's
		{ID: 4, Parent: 0, SimStart: 90, SimEnd: 120},   // runs past its parent: clipped
		{ID: 5, Parent: -1, SimStart: 200, SimEnd: 260}, // childless root
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
