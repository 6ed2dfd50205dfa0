package obs

import (
	"io"
	"sync"

	"twobssd/internal/sim"
)

// Collector aggregates the observability sets of every environment
// created while it is installed. A paper experiment typically builds
// many environments (one per data point, one per device under
// comparison); the collector is how `bench2b -metrics/-trace` turns all
// of them into one metrics report and one Chrome trace in which each
// environment is a separate trace process. Counters add, histograms
// merge and a gauge keeps its largest reading, so the merged metrics
// and timeline do not depend on the order sets were collected in
// (TestCollectorFoldIsOrderFree).
//
// The mutex guards registration: with the parallel experiment runner
// (bench2b -j), environments are created concurrently from many worker
// goroutines. The per-event hot paths stay lock-free inside each
// single-threaded environment; only the Collect call at environment
// construction synchronizes.
type Collector struct {
	mu      sync.Mutex
	tracing bool
	prev    func(*Set)
	sets    []*Set

	sampling bool
}

// NewCollector returns a collector; with tracing true, every collected
// environment gets span tracing enabled at creation.
func NewCollector(tracing bool) *Collector {
	return &Collector{tracing: tracing}
}

// EnableSampling makes the collector start a timeline sampler on every
// environment it collects. Call before Install.
func (c *Collector) EnableSampling() { c.sampling = true }

// Install hooks the collector into OnNewSet so every subsequently
// created environment is collected. It chains to any previously
// installed hook; Uninstall restores it.
func (c *Collector) Install() {
	c.prev = OnNewSet
	OnNewSet = func(s *Set) {
		c.Collect(s)
		if c.prev != nil {
			c.prev(s)
		}
	}
}

// Uninstall restores the previous OnNewSet hook.
func (c *Collector) Uninstall() { OnNewSet = c.prev }

// Collect registers one set explicitly (for environments created before
// Install, or in tests). Safe to call from concurrent experiment
// workers.
func (c *Collector) Collect(s *Set) {
	if c.tracing {
		s.EnableTracing()
	}
	if c.sampling {
		s.StartSampler()
	}
	c.mu.Lock()
	c.sets = append(c.sets, s)
	c.mu.Unlock()
}

// Sets returns the collected sets in collection order. Every fold
// over them is order-free; a trace's processes come out in this order,
// which is creation order when the environments run one at a time, as
// a traced bench.Run runs them.
func (c *Collector) Sets() []*Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Set(nil), c.sets...)
}

// MergedSnapshot folds every collected registry into one snapshot.
// Counters and histograms aggregate across environments and a gauge
// keeps the largest value any environment reported, so no fold depends
// on the order sets are visited in; the stamp is the total virtual time
// simulated (the sum of every environment's clock).
func (c *Collector) MergedSnapshot() Snapshot {
	merged := NewRegistry()
	gauges := make(map[string]float64)
	var total sim.Time
	for _, s := range c.Sets() {
		s.Registry().MergeInto(merged)
		for name, v := range s.Snapshot().Gauges {
			maxGauge(gauges, name, v)
		}
		total += s.Env().Now()
	}
	for name, v := range gauges {
		merged.Gauge(name).Set(v)
	}
	return merged.SnapshotAt(total)
}

// maxGauge folds one environment's reading of a gauge into a merged
// set: the largest reading wins.
func maxGauge(m map[string]float64, name string, v float64) {
	if old, ok := m[name]; !ok || v > old {
		m[name] = v
	}
}

// TotalEvents sums the dispatched-event counts of every collected
// environment — the denominator of the benchmark harness's events/sec
// and allocs/event figures.
func (c *Collector) TotalEvents() uint64 {
	var n uint64
	for _, s := range c.Sets() {
		n += s.Env().Events()
	}
	return n
}

// TotalVirtual sums every collected environment's clock: the total
// virtual time the run simulated.
func (c *Collector) TotalVirtual() sim.Time {
	var t sim.Time
	for _, s := range c.Sets() {
		t += s.Env().Now()
	}
	return t
}

// WriteMetricsJSON writes the merged metrics snapshot as JSON.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	return c.MergedSnapshot().WriteJSON(w)
}

// MergedTimeline folds every sampled environment's timeline into one:
// window k aggregates window k of each environment (all virtual clocks
// start at zero). Counter deltas add, histogram windows merge and a
// gauge keeps its largest reading, as in MergedSnapshot.
func (c *Collector) MergedTimeline() Timeline {
	var streams [][]point
	var dropped uint64
	for _, s := range c.Sets() {
		sm := s.Sampler()
		if sm == nil {
			continue
		}
		streams = append(streams, sm.points())
		dropped += sm.dropped
	}
	return mergeTimelines(streams, dropped)
}

// WriteTimelineJSON writes the merged timeline as JSON.
func (c *Collector) WriteTimelineJSON(w io.Writer) error {
	return c.MergedTimeline().WriteJSON(w)
}

// WriteTimelineCSV writes the merged timeline in long-form CSV.
func (c *Collector) WriteTimelineCSV(w io.Writer) error {
	return c.MergedTimeline().WriteCSV(w)
}

// WriteTraceJSON writes one Chrome trace combining every collected
// environment's tracer (environments without tracing are skipped), one
// process per environment in collection order.
func (c *Collector) WriteTraceJSON(w io.Writer) error {
	var parts []TracePart
	for _, s := range c.Sets() {
		if t := s.Tracer(); t != nil {
			parts = append(parts, TracePart{Tracer: t})
		}
	}
	return WriteTraceJSON(w, parts)
}
