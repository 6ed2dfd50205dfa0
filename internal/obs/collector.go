package obs

import (
	"io"
	"sort"
	"sync"

	"twobssd/internal/sim"
)

// Collector aggregates the observability sets of every environment
// created while it is installed. A paper experiment typically builds
// many environments (one per data point, one per device under
// comparison); the collector is how `bench2b -metrics/-trace` turns all
// of them into one metrics report and one Chrome trace in which each
// environment is a separate trace process.
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

// Sets returns the collected sets in collection order. Under the
// parallel runner that order depends on goroutine scheduling; use
// sortedSets (via MergedSnapshot / WriteTraceJSON) for deterministic
// reports.
func (c *Collector) Sets() []*Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Set(nil), c.sets...)
}

// sortedSets returns the collected sets in a deterministic order
// independent of collection (hence goroutine-scheduling) order: sets
// sort by their canonical snapshot JSON plus, when sampling is on,
// their timeline JSON. encoding/json emits map keys sorted, so the key
// is canonical; two sets can tie only when both artifacts are
// byte-identical, in which case their contributions to any fold are
// identical too and the tie order cannot matter.
func (c *Collector) sortedSets() []*Set {
	sets := c.Sets()
	keys := make([]string, len(sets))
	for i, s := range sets {
		key := canonicalJSON(s.Snapshot())
		if sm := s.Sampler(); sm != nil {
			key += "\x00" + canonicalJSON(sm.Timeline())
		}
		keys[i] = key
	}
	idx := make([]int, len(sets))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]*Set, len(sets))
	for i, j := range idx {
		out[i] = sets[j]
	}
	return out
}

// MergedSnapshot folds every collected registry into one snapshot.
// Counters and histograms aggregate across environments; the stamp is
// the total virtual time simulated (the sum of every environment's
// clock). The fold visits sets in sorted order, so the result is
// bit-identical no matter how experiment workers were scheduled.
func (c *Collector) MergedSnapshot() Snapshot {
	merged := NewRegistry()
	var total sim.Time
	for _, s := range c.sortedSets() {
		s.Registry().MergeInto(merged)
		total += s.Env().Now()
	}
	return merged.SnapshotAt(total)
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
// start at zero). Counter deltas add and histogram windows merge;
// gauges overwrite in sorted-set order. Environments are visited in
// the same deterministic order as MergedSnapshot, so the timeline is
// byte-identical no matter how experiment workers were scheduled.
func (c *Collector) MergedTimeline() Timeline {
	var streams [][]point
	var dropped uint64
	for _, s := range c.sortedSets() {
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
// environment's full tracer (environments without tracing — including
// those carrying only a bounded flight-recorder ring — are skipped),
// in the same deterministic set order as MergedSnapshot.
func (c *Collector) WriteTraceJSON(w io.Writer) error {
	var parts []TracePart
	for _, s := range c.sortedSets() {
		if t := s.Tracer(); t != nil && !t.Ring() {
			parts = append(parts, TracePart{Tracer: t})
		}
	}
	return WriteTraceJSON(w, parts)
}
