// Command benchmark is the repository's benchmark: four workloads on
// the simulated 2B-SSD stack, measured on two clocks. Virtual time
// (sim_*) is the result the model gives and repeats exactly for a seed;
// wall time (host_*, setup_s) is what the simulator costs to run.
//
//	benchmark --workload kv-ba --seed 1 --seconds 15 --trace 0   end-to-end metrics
//	benchmark --workload kv-ba --seed 1 --seconds 15 --trace 1   per-layer metrics + trace file
//	benchmark run|trace <workload> [--seed N] [--seconds S]      the same, by name
//	benchmark probes                                             the layer probes alone
//	benchmark check                                              determinism self-check
//	benchmark repeat -n 3 [workload...]                          spread of full-size runs
//	benchmark manifest                                           print BENCHMARK.json
//
// The last line of standard output of a run is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, out io.Writer) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "run", "trace":
		if len(args) < 2 {
			usage()
			return 2
		}
		rest := append([]string{"--workload", args[1]}, args[2:]...)
		if args[0] == "trace" {
			rest = append(rest, "--trace", "1")
		}
		return driverMain(rest, out)
	case "probes":
		return probesMain(out)
	case "check":
		return checkMain(out)
	case "repeat":
		return repeatMain(args[1:], out)
	case "manifest":
		return manifestMain(out)
	default:
		return driverMain(args, out)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	fmt.Fprintln(os.Stderr, "       benchmark run|trace <workload> [--seed n] [--seconds s] | probes | check | repeat -n 3 [workload...] | manifest")
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	fmt.Fprintln(os.Stderr, "workloads:", strings.Join(names, ", "))
}

// traceScale is the traced run's share of the untraced op count.
const traceScale = 0.1

func driverMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", nominalSeconds, "length of the measured phase; fixes the op count")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file")
	limit := fs.String("limit", "", "reproduce a known limit: "+strings.Join(limits, ", "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 {
		usage()
		return 2
	}
	scale := *seconds / nominalSeconds
	if *trace == 0 {
		o := RunOpts{Seed: *seed, Measured: scale, Setup: 1, SetupReps: 3, Limit: *limit}
		if o.Limit != "" {
			o.SetupReps = 1
		}
		r := w.Run(o)
		r.E2E["host_peak_rss_mb"] = peakRSSMB()
		printEndToEnd(out, r, *seed)
		return emitResult(out, r, endToEnd, r.E2E)
	}
	r, table, err := tracedRun(w, *seed, scale*traceScale, 1, outDir(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printLayers(out, r, table, *seed)
	return emitResult(out, r, perLayer, table)
}

// tracedRun runs the workload traced and untraced at the same size and
// assembles the per-layer table from the traced run and the probes (run
// here unless the caller has them already). The trace file goes to dir.
func tracedRun(w Workload, seed int64, measured, setup float64, dir string, ps *Probes) (*RunResult, map[string]float64, error) {
	tr := NewTracer(1 << 16)
	o := RunOpts{Seed: seed, Measured: measured, Setup: setup, SetupReps: 1}
	o.Tracer = tr
	traced := w.Run(o)
	o.Tracer = nil
	plain := w.Run(o)
	if ps == nil {
		var err error
		if ps, err = runProbes(); err != nil {
			return nil, nil, err
		}
	}
	ratio := 0.0
	if p := plain.E2E["host_ns_per_op"]; p > 0 {
		ratio = traced.E2E["host_ns_per_op"] / p
	}
	path := filepath.Join(dir, w.Name+".trace.json")
	if err := tr.WriteChrome(path, w.Name); err != nil {
		return nil, nil, err
	}
	traced.Notes = append(traced.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return traced, layerTable(traced, ps, ratio), nil
}

// outDir is benchmark/out, from the repository root or from benchmark/.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func printEndToEnd(out io.Writer, r *RunResult, seed int64) {
	fmt.Fprintf(out, "== %s  seed %d  %d ops attempted, %d failed  (untraced) ==\n", r.Workload, seed, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "metric %-30s %16.6f %-6s better=%-6s clock=%-4s bound=%g\n", m.Name, r.E2E[m.Name], m.Unit, m.Better, m.Clock, m.Bound)
	}
	fmt.Fprintf(out, "info   latency samples %d: exact p50 %.3f us, p99 %.3f us", r.Samples, r.P50Ns/1e3, r.P99Ns/1e3)
	if r.TailQ > 0 {
		fmt.Fprintf(out, ", highest percentile with >= 10 samples beyond it p%g = %.3f us", r.TailQ*100, r.TailQNs/1e3)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "info   fail_share %g (ops_attempted %d, ops_failed %d); set-ups %.3f s; %.2f events/op\n",
		float64(r.Failed)/float64(r.Attempted), r.Attempted, r.Failed, r.SetupS, float64(r.Events)/float64(r.Attempted))
	printNotes(out, r)
}

func printNotes(out io.Writer, r *RunResult) {
	for _, n := range r.Notes {
		fmt.Fprintln(out, "info  ", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(out, "PROBLEM", p)
	}
}

func printLayers(out io.Writer, r *RunResult, table map[string]float64, seed int64) {
	fmt.Fprintf(out, "== %s  seed %d  %d ops attempted, %d failed  (traced run, probes, attribution) ==\n", r.Workload, seed, r.Attempted, r.Failed)
	for _, m := range perLayer {
		if v, ok := table[m.Name]; ok {
			fmt.Fprintf(out, "metric %-36s %16.6f %-6s clock=%-4s %s\n", m.Name, v, m.Unit, m.Clock, m.What)
		} else {
			fmt.Fprintf(out, "metric %-36s %16s %-6s clock=%-4s absent on this workload\n", m.Name, "-", m.Unit, m.Clock)
		}
	}
	printAnchors(out, table)
	var sum float64
	for _, l := range append(append([]string{}, layers...), "unattributed") {
		sum += table[l+".host_share"]
	}
	fmt.Fprintf(out, "info   host shares sum to %.4f\n", sum)
	printNotes(out, r)
}

// printAnchors prints the simulator's error beside the paper's
// measurement for the probes that have one.
func printAnchors(out io.Writer, table map[string]float64) {
	for _, a := range anchors {
		v := table[a.metric]
		fmt.Fprintf(out, "anchor %-28s simulated %.3f vs paper %.3f (%+.1f %%)  %s\n", a.metric, v, a.paper, (v/a.paper-1)*100, a.what)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitResult prints the result line and returns the exit code. Every
// declared metric is present; one without a source here reads 0.
func emitResult(out io.Writer, r *RunResult, decl []Metric, values map[string]float64) int {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, map[string]metricValue{}}
	for _, m := range decl {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func probesMain(out io.Writer) int {
	ps, err := runProbes()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := make([]string, 0, len(ps.By))
	for n := range ps.By {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-20s %8s %14s %12s %10s %10s %12s\n", "probe", "calls", "sim ns/call", "host ns/call", "events", "allocs", "self host ns")
	for _, n := range names {
		p := ps.By[n]
		fmt.Fprintf(out, "%-20s %8d %14.1f %12.1f %10.2f %10.2f %12.1f\n", n, p.Calls, p.SimNs, p.HostNs, p.Events, p.Allocs, ps.Self[n])
	}
	printAnchors(out, probeTable(ps))
	return 0
}

// manifest is BENCHMARK.json: the contract between this program and
// whoever runs it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{l.Name, l.Unit, l.Better})
	}
	return m
}

func manifestMain(out io.Writer) int {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildManifest()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
