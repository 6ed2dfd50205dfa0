package obs

import (
	"encoding/json"
	"io"
	"sort"

	"twobssd/internal/histo"
	"twobssd/internal/sim"
)

// The metric timeline layer: instead of one end-of-run snapshot, a
// Sampler closes fixed virtual-time windows over a registry and records
// what changed in each — counters as per-window deltas (rates), gauges
// as sampled values, histograms as sparse per-window distributions with
// their own percentiles. Points live in a bounded ring, so an
// arbitrarily long campaign costs constant memory, and merge
// deterministically across environments (and across `-j N` workers) by
// window index.
//
// The sampler is driven by the sim kernel's clock-tick hook, not by a
// process: a sleeping daemon would keep the event queue non-empty and
// Run would never return. Ticks observe state between events, so a
// window's point reflects exactly the events that completed inside it —
// identical at any host parallelism.

// SampleInterval is the sampling cadence: one window per virtual
// millisecond.
const SampleInterval = sim.Millisecond

// MaxPoints bounds one sampler's ring.
const MaxPoints = 1 << 10

// point is one closed sampling window of a single environment. Maps
// hold only metrics that changed during the window (sparse), and are
// never mutated after the point is appended, so points() hands them out
// uncopied.
type point struct {
	window  int64 // index: window w covers virtual [w*I, (w+1)*I)
	timeNs  int64 // end of the state this point reflects
	spanNs  int64 // time since the previous point of this sampler
	partial bool  // run ended inside the window

	counters map[string]uint64
	gauges   map[string]float64
	histos   map[string]histo.Window
}

// Sampler snapshots one registry at a fixed virtual-time cadence into
// a ring of delta-encoded points. Create one with Set.StartSampler.
type Sampler struct {
	set *Set

	// Ring of emitted points in chronological order.
	pts     []point
	first   int
	count   int
	dropped uint64

	// Previous cumulative state, for delta encoding. Histogram clones
	// are taken only when a histogram's sample count moved, so idle
	// series cost one uint64 compare per window.
	prevCounters map[string]uint64
	prevHistoN   map[string]uint64
	prevHistos   map[string]*histo.H
	lastTimeNs   int64
}

// StartSampler begins sampling this set's registry every SampleInterval
// of virtual time, keeping at most MaxPoints windows. The sampler is
// driven by the environment's clock between events, so it neither
// keeps the simulation alive nor perturbs its virtual-time results; a
// final partial window is flushed when Run returns. Calling
// StartSampler again returns the existing sampler.
func (s *Set) StartSampler() *Sampler {
	if s.sampler != nil {
		return s.sampler
	}
	const interval = int64(SampleInterval)
	sm := &Sampler{
		set:          s,
		pts:          make([]point, 0, MaxPoints),
		prevCounters: make(map[string]uint64),
		prevHistoN:   make(map[string]uint64),
		prevHistos:   make(map[string]*histo.H),
	}
	s.sampler = sm
	env := s.env
	env.SetTick(env.Now()+sim.Time(interval), func(now sim.Time) sim.Time {
		// Windows closed: every window k with (k+1)*I <= now — the
		// current event has not executed yet, so state is exactly the
		// prefix of events in those windows.
		lastClosed := int64(now)/interval - 1
		sm.emit(lastClosed, (lastClosed+1)*interval, false)
		return sim.Time((lastClosed + 2) * interval)
	})
	env.OnRunEnd(func() {
		now := int64(env.Now())
		if now > sm.lastTimeNs || sm.count == 0 {
			sm.emit(now/interval, now, true)
		}
	})
	return sm
}

// Sampler returns the set's sampler, or nil when sampling is off.
func (s *Set) Sampler() *Sampler { return s.sampler }

// emit closes a window: computes deltas against the previous cumulative
// state and appends a point to the ring.
func (sm *Sampler) emit(window, timeNs int64, final bool) {
	r := sm.set.reg
	pt := point{window: window, timeNs: timeNs, spanNs: timeNs - sm.lastTimeNs, partial: final}
	sm.lastTimeNs = timeNs

	for name, c := range r.counters {
		v := c.Value()
		if d := v - sm.prevCounters[name]; d != 0 {
			if pt.counters == nil {
				pt.counters = make(map[string]uint64)
			}
			pt.counters[name] = d
			sm.prevCounters[name] = v
		}
	}
	for name, g := range r.gauges {
		if pt.gauges == nil {
			pt.gauges = make(map[string]float64)
		}
		pt.gauges[name] = g.Value()
	}
	// Sampled gauge funcs are user code: evaluate them in sorted name
	// order so any side effects are schedule-independent (see the
	// package doc's merge-semantics table).
	for _, name := range sortedKeys(r.gaugeFns) {
		if pt.gauges == nil {
			pt.gauges = make(map[string]float64)
		}
		pt.gauges[name] = r.gaugeFns[name]()
	}
	for name, h := range r.histos {
		n := h.N()
		if n == sm.prevHistoN[name] {
			continue
		}
		w := h.WindowSince(sm.prevHistos[name])
		if pt.histos == nil {
			pt.histos = make(map[string]histo.Window)
		}
		pt.histos[name] = w
		sm.prevHistoN[name] = n
		if prev, ok := sm.prevHistos[name]; ok {
			*prev = h.Clone()
		} else {
			c := h.Clone()
			sm.prevHistos[name] = &c
		}
	}

	if sm.count == cap(sm.pts) && sm.count > 0 {
		// Ring full: overwrite the oldest point.
		sm.pts[sm.first] = pt
		sm.first = (sm.first + 1) % sm.count
		sm.dropped++
	} else {
		sm.pts = append(sm.pts, pt)
		sm.count++
	}
}

// points returns the ring's contents in chronological order (fresh
// slice; the point maps themselves are immutable once emitted).
func (sm *Sampler) points() []point {
	out := make([]point, 0, sm.count)
	for i := 0; i < sm.count; i++ {
		out = append(out, sm.pts[(sm.first+i)%sm.count])
	}
	return out
}

// WindowSnapshot is the exported summary of one histogram's sampling
// window: per-window count, mean and percentiles (virtual ns).
type WindowSnapshot struct {
	N      uint64 `json:"n"`
	SumNs  int64  `json:"sum_ns"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

func snapWindow(w histo.Window) WindowSnapshot {
	return WindowSnapshot{
		N:      w.N,
		SumNs:  int64(w.Sum),
		MeanNs: int64(w.Mean()),
		P50Ns:  int64(w.Quantile(0.50)),
		P95Ns:  int64(w.Quantile(0.95)),
		P99Ns:  int64(w.Quantile(0.99)),
	}
}

// TimelinePoint is one exported window. Counters are per-window deltas
// (divide by SpanNs for a rate); gauges are the values sampled when the
// window closed; histograms summarize only the window's own samples.
type TimelinePoint struct {
	Window   int64                     `json:"window"`
	TimeNs   int64                     `json:"time_ns"`
	SpanNs   int64                     `json:"span_ns"`
	Partial  bool                      `json:"partial,omitempty"`
	Envs     int                       `json:"envs"`
	Counters map[string]uint64         `json:"counters,omitempty"`
	Gauges   map[string]float64        `json:"gauges,omitempty"`
	Histos   map[string]WindowSnapshot `json:"histograms,omitempty"`
}

// Timeline is the exported metric timeline: one point per sampling
// window that saw activity, merged across however many environments
// contributed. encoding/json sorts map keys, so identical runs marshal
// to identical bytes at any -j.
type Timeline struct {
	Schema        string          `json:"schema"`
	IntervalNs    int64           `json:"interval_ns"`
	Envs          int             `json:"envs"`
	DroppedPoints uint64          `json:"dropped_points"`
	Points        []TimelinePoint `json:"points"`
}

// TimelineSchema identifies the timeline JSON format.
const TimelineSchema = "twobssd/timeline-v1"

// mergeTimelines folds per-environment point streams into one exported
// timeline, grouping by window index. Environments all start their
// clocks at zero, so window k of one env is the same virtual interval
// as window k of another. Per window: counter deltas add, histogram
// windows merge and a gauge keeps its largest reading, so the fold
// does not depend on the order of the streams.
func mergeTimelines(streams [][]point, dropped uint64) Timeline {
	type acc struct {
		pt   point
		envs int
		hist map[string]histo.Window
	}
	byWindow := make(map[int64]*acc)
	for _, pts := range streams {
		for _, p := range pts {
			a := byWindow[p.window]
			if a == nil {
				a = &acc{pt: point{window: p.window}, hist: make(map[string]histo.Window)}
				byWindow[p.window] = a
			}
			a.envs++
			if p.timeNs > a.pt.timeNs {
				a.pt.timeNs = p.timeNs
			}
			if p.spanNs > a.pt.spanNs {
				a.pt.spanNs = p.spanNs
			}
			a.pt.partial = a.pt.partial || p.partial
			for name, d := range p.counters {
				if a.pt.counters == nil {
					a.pt.counters = make(map[string]uint64)
				}
				a.pt.counters[name] += d
			}
			for name, v := range p.gauges {
				if a.pt.gauges == nil {
					a.pt.gauges = make(map[string]float64)
				}
				maxGauge(a.pt.gauges, name, v)
			}
			for name, w := range p.histos {
				hw := a.hist[name]
				hw.Merge(w)
				a.hist[name] = hw
			}
		}
	}
	windows := make([]int64, 0, len(byWindow))
	for w := range byWindow {
		windows = append(windows, w)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	tl := Timeline{
		Schema:        TimelineSchema,
		IntervalNs:    int64(SampleInterval),
		Envs:          len(streams),
		DroppedPoints: dropped,
		Points:        make([]TimelinePoint, 0, len(windows)),
	}
	for _, w := range windows {
		a := byWindow[w]
		tp := TimelinePoint{
			Window:   a.pt.window,
			TimeNs:   a.pt.timeNs,
			SpanNs:   a.pt.spanNs,
			Partial:  a.pt.partial,
			Envs:     a.envs,
			Counters: a.pt.counters,
			Gauges:   a.pt.gauges,
		}
		if len(a.hist) > 0 {
			tp.Histos = make(map[string]WindowSnapshot, len(a.hist))
			for name, hw := range a.hist {
				tp.Histos[name] = snapWindow(hw)
			}
		}
		tl.Points = append(tl.Points, tp)
	}
	return tl
}

// WriteJSON writes the timeline as indented JSON. Map keys are emitted
// sorted, so identical runs produce identical bytes.
func (tl Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
