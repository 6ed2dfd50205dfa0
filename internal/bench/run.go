package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"twobssd/internal/obs"
)

// Select resolves ids against table in the order named: an
// experiment id, "all" (every paper artifact), or an address — one
// campaign point, <exp>/<row>/<point>, or one fleet scenario,
// <exp>/<scenario>. It fails on the first id that selects nothing.
func Select(table []Experiment, ids ...string) ([]Experiment, error) {
	var selected []Experiment
	for _, id := range ids {
		if strings.Contains(id, "/") {
			ex, err := address(table, id)
			if err != nil {
				return nil, err
			}
			selected = append(selected, ex)
			continue
		}
		n := len(selected)
		for _, ex := range table {
			if ex.ID == id || (id == "all" && ex.InAll) {
				selected = append(selected, ex)
			}
		}
		if len(selected) == n {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	return selected, nil
}

// Config is one run, as bench2b's flags select it.
type Config struct {
	Experiments []Experiment // in print order (Select)
	Full        bool         // -full: Full scale, else Quick
	Jobs        int          // -j: environments that execute at once
	// What the run collects across every environment it builds. With
	// any set, the Result carries the merged metrics and event totals;
	// with none, no collector is installed.
	Metrics  bool // -metrics, -benchjson, -benchgate
	Timeline bool // -timeline: sample one window per virtual millisecond
	Trace    bool // -trace: span-trace every environment, one at a time
}

// ExpResult is one experiment's cost. Under -j > 1 experiments overlap,
// so their wall times can sum past the run's; mallocs and events are
// attributed only at -j 1, where the deltas between experiments are
// unambiguous. The two ratios are for reading; bench2b's -benchgate
// compares wall_ns and mallocs.
type ExpResult struct {
	ID             string  `json:"id"`
	WallNs         int64   `json:"wall_ns"`
	Mallocs        uint64  `json:"mallocs,omitempty"`
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// Result is what a run measured, and is bench2b's -benchjson record
// field for field. Steady is left for the caller's steady-state probe.
type Result struct {
	Schema         string        `json:"schema"`
	Scale          string        `json:"scale"`
	GoVersion      string        `json:"go_version"`
	NumCPU         int           `json:"num_cpu"`
	Jobs           int           `json:"jobs"`
	Experiments    []ExpResult   `json:"experiments"`
	WallNs         int64         `json:"wall_ns"`
	Mallocs        uint64        `json:"mallocs"`
	VirtualNs      int64         `json:"virtual_ns"`
	Events         uint64        `json:"events"`
	EventsPerSec   float64       `json:"events_per_sec"`
	AllocsPerEvent float64       `json:"allocs_per_event"`
	Steady         *SteadyReport `json:"steady_state,omitempty"`

	// Failures counts the experiments whose gate failed; each printed a
	// FAIL line after its output.
	Failures int `json:"-"`
	// The run's collector, uninstalled (nil when Config asked for no
	// collection): its WriteMetricsJSON, WriteTimelineJSON and
	// WriteTraceJSON emit the merged artifacts.
	*obs.Collector `json:"-"`
}

// Run is the one run path: bench2b, its digest and the tests that
// compare runs all call it. It installs the collector cfg asks for,
// runs cfg's experiments on one Runner, streams their output to stdout
// in selection order at any -j, and removes the collector. At -j 1, or
// with one experiment, they run one after another on this goroutine,
// each attributed its mallocs and events; otherwise each runs on its
// own goroutine into a buffer printed when its turn comes (the Runner's
// semaphore bounds the environments that execute at once). A traced
// run is a replay of one unit (bench2b refuses more) at -j 1, so its
// trace holds one process per environment in creation order. A failed
// gate does not stop the run. The error is stdout's.
func Run(cfg Config, stdout io.Writer) (*Result, error) {
	scale, scaleName := Quick, "quick"
	if cfg.Full {
		scale, scaleName = Full, "full"
	}
	jobs := cfg.Jobs
	if cfg.Trace {
		jobs = 1
	}
	r := NewRunner(scale, jobs)
	exps := cfg.Experiments
	res := &Result{
		Schema: "bench2b/kernel-v3", Scale: scaleName, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Jobs: r.jobs, Experiments: make([]ExpResult, len(exps)),
	}
	var col *obs.Collector
	if cfg.Metrics || cfg.Timeline || cfg.Trace {
		col = obs.NewCollector(cfg.Trace)
		if cfg.Timeline {
			col.EnableSampling()
		}
		col.Install()
		defer col.Uninstall()
		res.Collector = col
	}
	var failures atomic.Int32
	step := func(i int, w io.Writer) {
		t0 := time.Now()
		if err := exps[i].Run(r, w); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failures.Add(1)
		}
		res.Experiments[i] = ExpResult{ID: exps[i].ID, WallNs: time.Since(t0).Nanoseconds()}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if r.jobs <= 1 || len(exps) == 1 {
		var m0, m1 runtime.MemStats
		for i := range exps {
			var ev0 uint64
			if col != nil {
				ev0 = col.TotalEvents()
			}
			runtime.ReadMemStats(&m0)
			step(i, stdout)
			runtime.ReadMemStats(&m1)
			er := &res.Experiments[i]
			er.Mallocs = m1.Mallocs - m0.Mallocs
			if col != nil && col.TotalEvents() > ev0 {
				er.Events = col.TotalEvents() - ev0
				er.EventsPerSec = float64(er.Events) / time.Duration(er.WallNs).Seconds()
				er.AllocsPerEvent = float64(er.Mallocs) / float64(er.Events)
			}
		}
	} else {
		bufs := make([]bytes.Buffer, len(exps))
		done := make([]chan struct{}, len(exps))
		for i := range exps {
			done[i] = make(chan struct{})
			go func() {
				defer close(done[i])
				step(i, &bufs[i])
			}()
		}
		var err error
		for i := range exps {
			<-done[i] // every experiment finishes before Run returns
			if err == nil {
				_, err = io.Copy(stdout, &bufs[i])
			}
		}
		if err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	res.WallNs, res.Mallocs = wall.Nanoseconds(), ms1.Mallocs-ms0.Mallocs
	if col != nil {
		res.VirtualNs, res.Events = int64(col.TotalVirtual()), col.TotalEvents()
	}
	if res.Events > 0 {
		res.EventsPerSec = float64(res.Events) / wall.Seconds()
		res.AllocsPerEvent = float64(res.Mallocs) / float64(res.Events)
	}
	res.Failures = int(failures.Load())
	return res, nil
}
