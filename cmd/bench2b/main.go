// Command bench2b regenerates the paper's tables and figures, and runs
// the reliability gates, on the simulated 2B-SSD stack.
//
//	bench2b [flags] [experiment ...]
//
// `bench2b -h` prints every flag with its default and every experiment
// id; both lists are generated — the flags from the flag set below, the
// ids from bench.Experiments(), the one registry — so this comment
// holds only what they cannot say:
//
//   - Every run goes through bench.Run, the one run path: it runs the
//     selected experiments, streams their output and owns the collector
//     behind -metrics, -timeline and -trace. This command parses flags,
//     opens the report files, profiles, runs the steady-state probe and
//     the -benchgate comparison, and writes what Run returned.
//   - "all" (the default) selects the paper artifacts. The reliability
//     artifacts (crash campaigns, oracle fuzzing, fleet scenarios, WAL
//     lifecycle, and their CI-sized "-smoke" variants) run only when
//     named, print their reports, and make the exit status 1 when a
//     gate fails. EXPERIMENTS.md describes each artifact.
//   - -j is the only parallelism knob: at most N simulation
//     environments execute at once, across however many experiments
//     were selected. Every environment's virtual clock is its own, so
//     every artifact is byte-identical at any -j; -j 1 is strictly
//     sequential, as -benchjson's per-experiment attribution and -trace
//     of one unit (an address, or a paper artifact) need.
//   - "digest" runs alone: it fingerprints a fixed list of experiments
//     (their stdout, -metrics and -timeline at quick scale) as the
//     SHA-256 digests GOLDEN.json holds, so a change that should move
//     no simulated number is checked with one cmp.
//   - -benchjson / -benchgate measure the simulator itself on the host
//     clock (BENCH_kernel.json); the cost of an observer is the same
//     report taken with and without it (-timeline, -trace).
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"twobssd/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// table is the experiment registry. It is a variable only so that the
// command's tests can substitute an entry; nothing else writes it.
var table = bench.Experiments()

// errGate is run's one non-usage failure that is not an I/O error.
var errGate = errors.New("gate failed (durability violation, model divergence, or kernel performance regression)")

// options are the parsed flags.
type options struct {
	full bool
	jobs int
	// report paths
	metrics, trace, timeline, benchJSON, benchGate, cpuProfile, memProfile string
}

// run is the whole command: 0 on success, 2 on a usage error, 1 when a
// report cannot be written or a gate failed.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench2b", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.full, "full", false, "run at full scale (slower, closer to the paper's run lengths)")
	fs.IntVar(&o.jobs, "j", runtime.NumCPU(), "simulation environments allowed to run at once (results identical at any value)")
	fs.StringVar(&o.metrics, "metrics", "", "write merged metrics snapshot JSON to this file")
	fs.StringVar(&o.trace, "trace", "", "write the Chrome trace-event JSON (Perfetto) of one unit to this file")
	fs.StringVar(&o.benchJSON, "benchjson", "", "write wall-clock kernel benchmark JSON to this file")
	fs.StringVar(&o.timeline, "timeline", "", "write the merged metric timeline JSON, one window per virtual millisecond, to this file")
	fs.StringVar(&o.benchGate, "benchgate", "", "compare this run against a baseline kernel benchmark JSON; exit non-zero when wall time (+25%) or allocations (+10%), in total or of one experiment, regressed")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a host allocation profile (pprof, alloc_space) to this file after the run")
	fs.Usage = func() {
		var all, named []string
		for _, ex := range table {
			if ex.InAll {
				all = append(all, ex.ID)
			} else {
				named = append(named, ex.ID)
			}
		}
		fmt.Fprintf(stderr, "usage: bench2b [flags] [experiment ...]\n")
		fmt.Fprintf(stderr, "experiments: %s all (default: all)\n", strings.Join(all, " "))
		fmt.Fprintf(stderr, "reliability (not in \"all\"): %s\n", strings.Join(named, " "))
		fmt.Fprintf(stderr, "units (-trace takes one): a paper artifact (probe), a campaign point <exp>/<row>/<point> (crash-smoke/walseg/3), a fleet scenario <exp>/<scenario> (fleet/fleet-failover)\n")
		fmt.Fprintf(stderr, "digest: SHA-256 of the stdout, -metrics and -timeline of %s at quick scale (GOLDEN.json)\n", strings.Join(digestIDs, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	selected, err := bench.Select(table, names...)
	digesting := slices.Equal(names, []string{"digest"})
	switch {
	case o.jobs < 1:
		err = fmt.Errorf("-j %d: want at least 1", o.jobs)
	case digesting:
		err = nil
	case slices.Contains(names, "digest"):
		err = errors.New("digest runs alone")
	case err == nil && o.trace != "" && !bench.Unit(selected):
		err = fmt.Errorf("-trace records one unit, not %s", strings.Join(names, " "))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench2b: %v\n", err)
		fs.Usage()
		return 2
	}
	if digesting {
		err = digest(o.jobs, stdout)
	} else {
		err = execute(o, selected, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench2b: %v\n", err)
		return 1
	}
	return 0
}

// gate compares this run against a committed baseline report and
// returns an error on a host-cost regression. What it gates are totals —
// wall time and heap allocations, for the run and for each experiment
// the two reports share — never the per-event ratios printed next to
// them: a change that deletes futile events lowers events/sec and
// raises allocs/event while making every run cheaper. Wall time may
// grow 25 % plus 50 ms (short experiments are all jitter), allocations
// 10 % plus 2000.
func gate(cur *bench.Result, basePath string) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base bench.Result
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", basePath, err)
	}
	check := func(what string, wall, baseWall int64, mallocs, baseMallocs uint64) error {
		if baseWall > 0 && wall > baseWall+baseWall/4+50e6 {
			return fmt.Errorf("%s: wall time regressed: %d ms vs baseline %d ms (+%.1f%%)",
				what, wall/1e6, baseWall/1e6, 100*(float64(wall)/float64(baseWall)-1))
		}
		if baseMallocs > 0 && mallocs > baseMallocs+baseMallocs/10+2000 {
			return fmt.Errorf("%s: allocations regressed: %d vs baseline %d (+%.1f%%)",
				what, mallocs, baseMallocs, 100*(float64(mallocs)/float64(baseMallocs)-1))
		}
		return nil
	}
	if err := check("run", cur.WallNs, base.WallNs, cur.Mallocs, base.Mallocs); err != nil {
		return err
	}
	was := make(map[string]bench.ExpResult, len(base.Experiments))
	for _, er := range base.Experiments {
		was[er.ID] = er
	}
	for _, er := range cur.Experiments {
		if b, ok := was[er.ID]; ok {
			if err := check(er.ID, er.WallNs, b.WallNs, er.Mallocs, b.Mallocs); err != nil {
				return err
			}
		}
	}
	if base.Steady != nil && cur.Steady != nil {
		if err := check("steady-state probe", 0, 0, cur.Steady.Allocs, base.Steady.Allocs); err != nil {
			return err
		}
	}
	return nil
}

// execute runs the selected experiments through bench.Run and writes
// every requested report. It returns errGate when the run completed but
// a gate failed.
func execute(o options, selected []bench.Experiment, stdout, stderr io.Writer) error {
	// Open the report files before running anything: a bad path should
	// fail now, not after minutes of experiments.
	var cpuFile, memFile, metricsFile, traceFile, benchFile, timelineFile *os.File
	for _, rf := range []struct {
		path string
		f    **os.File
	}{
		{o.cpuProfile, &cpuFile}, {o.memProfile, &memFile},
		{o.metrics, &metricsFile}, {o.trace, &traceFile}, {o.benchJSON, &benchFile}, {o.timeline, &timelineFile},
	} {
		if rf.path == "" {
			continue
		}
		f, err := os.Create(rf.path)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; writeReport closes on success
		*rf.f = f
	}

	// Host-side profiling: the kernel's wall-clock performance is a
	// first-class artifact (BENCH_kernel.json), so regressions must be
	// diagnosable from the shipped binary without code edits.
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile() // error paths; a second stop is a no-op
	}

	benching := benchFile != nil || o.benchGate != ""
	res, err := bench.Run(bench.Config{
		Experiments: selected, Full: o.full, Jobs: o.jobs,
		Metrics: metricsFile != nil || benching, Timeline: timelineFile != nil, Trace: traceFile != nil,
	}, stdout)
	if err != nil {
		return err
	}
	for _, rep := range []struct {
		f    *os.File
		emit func(io.Writer) error
	}{{metricsFile, res.WriteMetricsJSON}, {traceFile, res.WriteTraceJSON}, {timelineFile, res.WriteTimelineJSON}} {
		if err := writeReport(rep.f, rep.emit); err != nil {
			return err
		}
	}
	if benching {
		// Steady-state allocation probe: a sustained BA-WAL commit stream
		// on a warmed stack, construction excluded — the long-run rate.
		scale := bench.Quick
		if o.full {
			scale = bench.Full
		}
		res.Steady = bench.SteadyStateAllocs(scale)
		fmt.Fprintf(stdout, "steady-state probe: %d events, %.4f allocs/event\n",
			res.Steady.Events, res.Steady.AllocsPerEvent)
		if err := writeReport(benchFile, jsonReport(res)); err != nil {
			return err
		}
		if o.benchGate != "" {
			if err := gate(res, o.benchGate); err != nil {
				fmt.Fprintf(stderr, "bench2b: benchgate: %v\n", err)
				res.Failures++
			} else {
				fmt.Fprintf(stdout, "benchgate: ok (%d ms, %d allocations; %.0f events/sec, %.4f allocs/event; vs %s)\n",
					res.WallNs/1e6, res.Mallocs, res.EventsPerSec, res.AllocsPerEvent, o.benchGate)
			}
		}
	}

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
	}
	if memFile != nil {
		runtime.GC() // flush recent frees so alloc_space is settled
		if err := writeReport(memFile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			return err
		}
	}
	if res.Failures > 0 {
		return errGate
	}
	return nil
}

// jsonReport returns an emitter that writes v as indented JSON.
func jsonReport(v interface{}) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// writeReport emits into f and closes it; a nil f (report not
// requested) is a no-op.
func writeReport(f *os.File, emit func(io.Writer) error) error {
	if f == nil {
		return nil
	}
	if err := emit(f); err != nil {
		return fmt.Errorf("writing %s: %w", f.Name(), err)
	}
	return f.Close()
}

// digestIDs are the experiments `bench2b digest` fingerprints: every
// campaign sweep and its smoke, the fleet scenarios and the paper
// artifacts. GOLDEN.json holds their digests; a change that means to
// move no simulated number leaves it untouched.
var digestIDs = []string{"crash", "crash-smoke", "fuzz", "fuzz-smoke", "fleet", "fleet-smoke", "all"}

// digest runs each of digestIDs through bench.Run at quick scale, as if
// with -metrics and -timeline, and writes one SHA-256 per artifact — its
// stdout, its metrics snapshot and its timeline, each the bytes those
// flags write — as the JSON GOLDEN.json holds. Every artifact is
// byte-identical at any -j, so the output is too. It returns errGate when an experiment's gate
// failed; the digests are written regardless.
func digest(jobs int, stdout io.Writer) error {
	sums := make(map[string]map[string]string, len(digestIDs))
	failures := 0
	for _, id := range digestIDs {
		selected, err := bench.Select(table, id)
		if err != nil {
			return err
		}
		var out, metrics, timeline bytes.Buffer
		res, err := bench.Run(bench.Config{Experiments: selected, Jobs: jobs, Timeline: true}, &out)
		if err != nil {
			return err
		}
		failures += res.Failures
		if err := res.WriteMetricsJSON(&metrics); err != nil {
			return err
		}
		if err := res.WriteTimelineJSON(&timeline); err != nil {
			return err
		}
		sums[id] = map[string]string{
			"stdout": sha(out.Bytes()), "metrics": sha(metrics.Bytes()), "timeline": sha(timeline.Bytes()),
		}
	}
	if err := jsonReport(sums)(stdout); err != nil {
		return err
	}
	if failures > 0 {
		return errGate
	}
	return nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
