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
//   - "all" (the default) selects the paper artifacts. The reliability
//     artifacts (crash campaigns, oracle fuzzing, fleet scenarios, WAL
//     lifecycle, and their CI-sized "-smoke" variants) run only when
//     named, print their reports, and make the exit status 1 when a
//     gate fails. EXPERIMENTS.md describes each artifact.
//   - -j is the only parallelism knob: at most N simulation
//     environments execute at once, across however many experiments
//     were selected. Every environment's virtual clock is its own, so
//     every artifact — tables, -metrics, -timeline, -trace — is
//     byte-identical at any -j; -j 1 is strictly sequential and is what
//     -benchjson's per-experiment attribution needs.
//   - -benchjson / -benchgate measure the simulator itself on the host
//     clock (BENCH_kernel.json); the cost of an observer is the same
//     report taken with and without it (-timeline, -trace).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"twobssd/internal/bench"
	"twobssd/internal/obs"
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
	fs.StringVar(&o.trace, "trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	fs.StringVar(&o.benchJSON, "benchjson", "", "write wall-clock kernel benchmark JSON to this file")
	fs.StringVar(&o.timeline, "timeline", "", "write the merged metric timeline, one window per virtual millisecond, to this file (.csv extension selects CSV, else JSON)")
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
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.jobs < 1 {
		fmt.Fprintf(stderr, "bench2b: -j %d: want at least 1\n", o.jobs)
		fs.Usage()
		return 2
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	var selected []bench.Experiment
	for _, name := range names {
		n := len(selected)
		for _, ex := range table {
			if ex.ID == name || (name == "all" && ex.InAll) {
				selected = append(selected, ex)
			}
		}
		if len(selected) == n {
			fmt.Fprintf(stderr, "bench2b: unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
	}
	if err := execute(o, selected, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench2b: %v\n", err)
		return 1
	}
	return 0
}

// expReport is one experiment's cost in the -benchjson report. Under
// -j > 1 experiments overlap, so their wall times can sum past the
// run's total — and the per-experiment allocation/event attribution
// is only recorded at -j 1, where the deltas between experiments are
// unambiguous. The two ratios are for reading; -benchgate compares
// wall_ns and mallocs.
type expReport struct {
	ID             string  `json:"id"`
	WallNs         int64   `json:"wall_ns"`
	Mallocs        uint64  `json:"mallocs,omitempty"`
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// kernelReport is the -benchjson wall-clock performance record.
type kernelReport struct {
	Schema         string              `json:"schema"`
	Scale          string              `json:"scale"`
	GoVersion      string              `json:"go_version"`
	NumCPU         int                 `json:"num_cpu"`
	Jobs           int                 `json:"jobs"`
	Experiments    []expReport         `json:"experiments"`
	WallNs         int64               `json:"wall_ns"`
	Mallocs        uint64              `json:"mallocs"`
	VirtualNs      int64               `json:"virtual_ns"`
	Events         uint64              `json:"events"`
	EventsPerSec   float64             `json:"events_per_sec"`
	AllocsPerEvent float64             `json:"allocs_per_event"`
	Steady         *bench.SteadyReport `json:"steady_state,omitempty"`
}

// gate compares this run against a committed baseline report and
// returns an error on a host-cost regression. What it gates are totals —
// wall time and heap allocations, for the run and for each experiment
// the two reports share — never the per-event ratios printed next to
// them: a change that deletes futile events lowers events/sec and
// raises allocs/event while making every run cheaper. Wall time may
// grow 25 % plus 50 ms (short experiments are all jitter), allocations
// 10 % plus 2000.
func gate(cur kernelReport, basePath string) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base kernelReport
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
	was := make(map[string]expReport, len(base.Experiments))
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

// execute runs the selected experiments and writes every requested
// report. It returns errGate when the run completed but a gate failed.
func execute(o options, selected []bench.Experiment, stdout, stderr io.Writer) error {
	scale, scaleName := bench.Quick, "quick"
	if o.full {
		scale, scaleName = bench.Full, "full"
	}
	r := bench.NewRunner(scale, o.jobs)

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

	var col *obs.Collector
	if metricsFile != nil || traceFile != nil || benchFile != nil || o.benchGate != "" || timelineFile != nil {
		col = obs.NewCollector(traceFile != nil)
		if timelineFile != nil {
			col.EnableSampling()
		}
		col.Install()
		defer col.Uninstall()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	reports, failures, err := runAll(r, selected, col, stdout)
	if err != nil {
		return err
	}
	wallTotal := time.Since(start)
	runtime.ReadMemStats(&ms1)

	if col != nil {
		col.Uninstall()
		emitTimeline := col.WriteTimelineJSON
		if strings.HasSuffix(o.timeline, ".csv") {
			emitTimeline = col.WriteTimelineCSV
		}
		if err := writeReport(metricsFile, col.WriteMetricsJSON); err != nil {
			return err
		}
		if err := writeReport(traceFile, col.WriteTraceJSON); err != nil {
			return err
		}
		if err := writeReport(timelineFile, emitTimeline); err != nil {
			return err
		}
	}
	if benchFile != nil || o.benchGate != "" {
		rep := kernelReport{
			Schema:      "bench2b/kernel-v3",
			Scale:       scaleName,
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Jobs:        r.Jobs(),
			Experiments: reports,
			WallNs:      wallTotal.Nanoseconds(),
			Mallocs:     ms1.Mallocs - ms0.Mallocs,
			VirtualNs:   int64(col.TotalVirtual()),
			Events:      col.TotalEvents(),
		}
		if rep.Events > 0 {
			rep.EventsPerSec = float64(rep.Events) / wallTotal.Seconds()
			rep.AllocsPerEvent = float64(rep.Mallocs) / float64(rep.Events)
		}
		// Steady-state allocation probe: a sustained BA-WAL commit
		// stream on a warmed stack. The aggregate allocs/event above
		// includes per-experiment construction; this is the long-run
		// rate the allocation work targets.
		rep.Steady = bench.SteadyStateAllocs(scale)
		fmt.Fprintf(stdout, "steady-state probe: %d events, %.4f allocs/event\n",
			rep.Steady.Events, rep.Steady.AllocsPerEvent)
		if err := writeReport(benchFile, jsonReport(rep)); err != nil {
			return err
		}
		if o.benchGate != "" {
			if err := gate(rep, o.benchGate); err != nil {
				fmt.Fprintf(stderr, "bench2b: benchgate: %v\n", err)
				failures++
			} else {
				fmt.Fprintf(stdout, "benchgate: ok (%d ms, %d allocations; %.0f events/sec, %.4f allocs/event; vs %s)\n",
					rep.WallNs/1e6, rep.Mallocs, rep.EventsPerSec, rep.AllocsPerEvent, o.benchGate)
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
	if failures > 0 {
		return errGate
	}
	return nil
}

// runAll executes the selected experiments and streams their output to
// stdout in selection order. At -j 1 everything runs sequentially on
// this goroutine (the legacy behavior); otherwise experiments run
// concurrently, each into its own buffer, and buffers are printed as
// their turn comes — output order never depends on scheduling (the
// Runner's semaphore, not this fan-out, bounds the environments that
// execute at once). Returns each experiment's wall time, plus —
// sequentially only, where the deltas are unambiguous — its simulation
// events and host allocations, and the number of experiments whose gate
// failed (each printed as a FAIL line after its report).
func runAll(r *bench.Runner, selected []bench.Experiment, col *obs.Collector, stdout io.Writer) ([]expReport, int, error) {
	reports := make([]expReport, len(selected))
	failed := make([]bool, len(selected))
	step := func(i int, w io.Writer) {
		ex := selected[i]
		t0 := time.Now()
		if err := ex.Run(r, w); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failed[i] = true
		}
		reports[i] = expReport{ID: ex.ID, WallNs: time.Since(t0).Nanoseconds()}
	}
	if r.Jobs() <= 1 || len(selected) == 1 {
		var ms0, ms1 runtime.MemStats
		for i := range selected {
			var ev0 uint64
			if col != nil {
				ev0 = col.TotalEvents()
			}
			runtime.ReadMemStats(&ms0)
			step(i, stdout)
			runtime.ReadMemStats(&ms1)
			er := &reports[i]
			er.Mallocs = ms1.Mallocs - ms0.Mallocs
			if col != nil && col.TotalEvents() > ev0 {
				er.Events = col.TotalEvents() - ev0
				er.EventsPerSec = float64(er.Events) / time.Duration(er.WallNs).Seconds()
				er.AllocsPerEvent = float64(er.Mallocs) / float64(er.Events)
			}
		}
	} else {
		type slot struct {
			buf  bytes.Buffer
			done chan struct{}
		}
		slots := make([]*slot, len(selected))
		for i := range selected {
			i := i
			slots[i] = &slot{done: make(chan struct{})}
			go func() {
				defer close(slots[i].done)
				step(i, &slots[i].buf)
			}()
		}
		for _, s := range slots {
			<-s.done
			if _, err := io.Copy(stdout, &s.buf); err != nil {
				return nil, 0, err
			}
		}
	}
	failures := 0
	for _, f := range failed {
		if f {
			failures++
		}
	}
	return reports, failures, nil
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
