// Package obs is the simulator-wide observability layer: a metrics
// registry (named counters, gauges and latency histograms that snapshot
// to a stable JSON/text report) plus a span tracer that exports Chrome
// trace-event JSON viewable in Perfetto or chrome://tracing (trace.go).
//
// One Set hangs off every sim.Env (via the Env attachment slot);
// components fetch it with Of(env) at construction and register their
// metrics once. Because the sim kernel is single-threaded by
// construction, nothing here takes a lock, and the whole layer is built
// so the hot path costs nothing when tracing is disabled: a nil *Tracer
// is a valid tracer whose Begin/End/Instant/Count are allocation-free
// no-ops, and counters are bare uint64 adds.
//
// The paper's evaluation (Figs 7-10) attributes latency to pipeline
// stages — host submission, firmware, NAND array, PCIe link, BA-buffer
// pin/flush; this layer is what makes those attributions measurable on
// the simulated stack rather than asserted.
//
// # Merge semantics
//
// When registries are folded across environments (Registry.MergeInto,
// Collector.MergedSnapshot, timeline merges), each metric kind has a
// fixed rule:
//
//   - Counters AGGREGATE: values (and per-window deltas) add.
//   - Histograms AGGREGATE: bucket counts, sums and extremes merge.
//   - Gauges OVERWRITE in Registry.MergeInto: the value from the
//     last-merged registry wins. The collector's reports (MergedSnapshot,
//     MergedTimeline) keep the MAX instead, so a merged gauge is the
//     largest reading any environment reported, whatever order the
//     fold visits — never a fleet total.
//   - GaugeFuncs fold like gauges. They are evaluated at
//     snapshot/merge time in sorted name order, so callbacks with side
//     effects observe a deterministic evaluation sequence. When the
//     environment shuts down they are evaluated one last time into
//     plain gauges and dropped (Registry.freeze), so a collected set
//     does not keep its environment's model alive.
//
// Beyond snapshots, the package provides virtual-time metric timelines
// (timeline.go) and post-mortem flight dumps of a traced replay
// (flight.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"twobssd/internal/histo"
	"twobssd/internal/sim"
)

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op (components built without a registry still work).
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value. The nil Gauge is a valid no-op.
type Gauge struct{ v float64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry holds named metrics. Metrics are get-or-create by name:
// registering the same name twice returns the same instance, so
// components constructed repeatedly in one environment aggregate
// (Prometheus-style series identity).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	histos   map[string]*histo.H
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		histos:   make(map[string]*histo.H),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge sampled at snapshot time (occupancy
// fractions, queue depths). Re-registering a name replaces the
// function (the newest component instance wins).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.gaugeFns[name] = fn
}

// freeze evaluates every gauge func once, in sorted name order, into a
// plain gauge of the same name and drops the funcs: a registry read
// after its environment shut down reports the same gauges without
// keeping alive the components the funcs close over.
func (r *Registry) freeze() {
	for _, name := range sortedKeys(r.gaugeFns) {
		r.Gauge(name).Set(r.gaugeFns[name]())
	}
	clear(r.gaugeFns)
}

// CounterValue returns the named counter's value without creating it:
// 0 when no component registered the name.
func (r *Registry) CounterValue(name string) uint64 { return r.counters[name].Value() }

// Histo returns the named latency histogram, creating it on first use.
func (r *Registry) Histo(name string) *histo.H {
	if h, ok := r.histos[name]; ok {
		return h
	}
	h := &histo.H{}
	r.histos[name] = h
	return h
}

// MergeInto folds this registry's metrics into dst following the
// package's merge-semantics table: counters and histograms aggregate,
// gauges and sampled gauge funcs overwrite. Gauge funcs are evaluated
// here, in sorted name order — snapshot-time sampling must not depend
// on map iteration order (callbacks may have side effects, and two
// merges of the same registry must agree).
func (r *Registry) MergeInto(dst *Registry) {
	for name, c := range r.counters {
		dst.Counter(name).Add(c.Value())
	}
	for name, g := range r.gauges {
		dst.Gauge(name).Set(g.Value())
	}
	for _, name := range sortedKeys(r.gaugeFns) {
		dst.Gauge(name).Set(r.gaugeFns[name]())
	}
	for name, h := range r.histos {
		dst.Histo(name).Merge(h)
	}
}

// HistoSnapshot is the exported summary of one latency histogram. All
// durations are virtual nanoseconds.
type HistoSnapshot struct {
	N      uint64 `json:"n"`
	SumNs  int64  `json:"sum_ns"`
	MeanNs int64  `json:"mean_ns"`
	MinNs  int64  `json:"min_ns"`
	MaxNs  int64  `json:"max_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// Snapshot is a stable, JSON-serializable view of a registry.
// encoding/json sorts map keys, so two snapshots of identical runs
// marshal to identical bytes.
type Snapshot struct {
	VirtualTimeNs int64                    `json:"virtual_time_ns"`
	Counters      map[string]uint64        `json:"counters"`
	Gauges        map[string]float64       `json:"gauges"`
	Histograms    map[string]HistoSnapshot `json:"histograms"`
}

func snapHisto(h *histo.H) HistoSnapshot {
	return HistoSnapshot{
		N:      h.N(),
		SumNs:  int64(h.Sum()),
		MeanNs: int64(h.Mean()),
		MinNs:  int64(h.Min()),
		MaxNs:  int64(h.Max()),
		P50Ns:  int64(h.P50()),
		P99Ns:  int64(h.P99()),
		P999Ns: int64(h.P999()),
	}
}

// SnapshotAt captures every metric, stamping the report with the given
// virtual time (the environment's Now, or a total across environments).
func (r *Registry) SnapshotAt(now sim.Time) Snapshot {
	s := Snapshot{
		VirtualTimeNs: int64(now),
		Counters:      make(map[string]uint64, len(r.counters)),
		Gauges:        make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Histograms:    make(map[string]HistoSnapshot, len(r.histos)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for _, name := range sortedKeys(r.gaugeFns) {
		s.Gauges[name] = r.gaugeFns[name]()
	}
	for name, h := range r.histos {
		s.Histograms[name] = snapHisto(h)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes a sorted human-readable report.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "virtual_time: %v\n", sim.Duration(s.VirtualTimeNs)); err != nil {
		return err
	}
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge   %-44s %g\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "histo   %-44s n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v\n",
			n, h.N, sim.Duration(h.MeanNs), sim.Duration(h.P50Ns),
			sim.Duration(h.P99Ns), sim.Duration(h.P999Ns), sim.Duration(h.MaxNs)); err != nil {
			return err
		}
	}
	return nil
}

// Set is the observability state of one simulation environment: its
// registry plus (when enabled) its span tracer.
type Set struct {
	env     *sim.Env
	reg     *Registry
	tracer  *Tracer
	sampler *Sampler
	aux     interface{}
}

// OnNewSet, when non-nil, is invoked each time Of lazily creates a Set
// for an environment. bench.Run installs a Collector hook here so any
// experiment — however many environments it builds internally — emits
// metrics and trace artifacts. Set it before the environments are
// created; it runs on the goroutine calling Of.
var OnNewSet func(*Set)

// Of returns the environment's observability set, creating and
// attaching one on first use. Metrics are therefore always live (a
// counter is just a uint64 add); tracing stays off until EnableTracing.
func Of(env *sim.Env) *Set {
	if v := env.Attachment(); v != nil {
		if s, ok := v.(*Set); ok {
			return s
		}
	}
	s := &Set{env: env, reg: NewRegistry()}
	env.SetAttachment(s)
	env.OnShutdown(s.reg.freeze)
	if OnNewSet != nil {
		OnNewSet(s)
	}
	return s
}

// Env returns the environment this set observes.
func (s *Set) Env() *sim.Env { return s.env }

// Registry returns the metrics registry.
func (s *Set) Registry() *Registry { return s.reg }

// Tracer returns the span tracer, or nil when tracing is disabled.
// The nil tracer is valid: every method is an allocation-free no-op.
func (s *Set) Tracer() *Tracer { return s.tracer }

// EnableTracing switches span recording on (idempotent) and returns the
// tracer. Call it before constructing the components to be traced —
// they read the tracer through the Set on every operation, so enabling
// late also works, it just misses earlier events.
func (s *Set) EnableTracing() *Tracer {
	if s.tracer == nil {
		s.tracer = newTracer(s.env)
	}
	return s.tracer
}

// SetAux attaches an opaque companion value to the set. The sim.Env
// has exactly one attachment slot (held by this Set); cross-cutting
// layers that also need per-env state — internal/fault is the user —
// ride along here instead of competing for the slot.
func (s *Set) SetAux(v interface{}) { s.aux = v }

// Aux returns the companion value installed by SetAux, or nil.
func (s *Set) Aux() interface{} { return s.aux }

// Snapshot captures the registry at the environment's current virtual
// time.
func (s *Set) Snapshot() Snapshot { return s.reg.SnapshotAt(s.env.Now()) }
