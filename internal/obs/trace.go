package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"twobssd/internal/sim"
)

// MaxEvents bounds one full tracer's event buffer. A paper experiment
// at full scale can emit tens of millions of spans; past the cap new
// events are counted as dropped instead of recorded, keeping the trace
// loadable in Perfetto and the simulator's memory bounded.
const MaxEvents = 1 << 18

// Tracer records begin/end spans, instant events and counter samples
// stamped with virtual time, grouped into named tracks (one Chrome
// trace "thread" per track: a process, a NAND die, the PCIe link...).
//
// A nil *Tracer is the disabled tracer: every method returns
// immediately without allocating — the zero-overhead fast path asserted
// by BenchmarkDisabledTracer. An enabled tracer (EnableTracing)
// appends every event up to MaxEvents and exports Chrome trace JSON.
type Tracer struct {
	env     *sim.Env
	dropped uint64
	tracks  []string       // tid -> track name, in first-use order
	tids    map[string]int // track name -> tid
	events  []Event
}

// Event is one recorded trace event.
type Event struct {
	TID  int
	Ph   byte // 'X' complete span, 'i' instant, 'C' counter sample
	TS   sim.Time
	Dur  sim.Duration // 'X' only
	Cat  string
	Name string
	Val  float64 // 'C' only
}

func newTracer(env *sim.Env) *Tracer {
	return &Tracer{env: env, tids: make(map[string]int)}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns the recorded events in chronological order. The
// slice is borrowed: do not mutate it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped reports how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Track returns the name of a track ID.
func (t *Tracer) Track(tid int) string { return t.tracks[tid] }

func (t *Tracer) tid(track string) int {
	if id, ok := t.tids[track]; ok {
		return id
	}
	id := len(t.tracks)
	t.tracks = append(t.tracks, track)
	t.tids[track] = id
	return id
}

func (t *Tracer) emit(ev Event) {
	if len(t.events) >= MaxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Span is an open interval on one track. It is a value: beginning a
// span on the nil tracer returns the zero Span, whose End is a no-op,
// so the disabled path allocates nothing.
type Span struct {
	t     *Tracer
	tid   int
	start sim.Time
	cat   string
	name  string
}

// Begin opens a span named name on the given track, stamped with the
// current virtual time. cat groups spans for trace-viewer filtering
// (one category per instrumented package: nand, pcie, device, ...).
func (t *Tracer) Begin(track, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, tid: t.tid(track), start: t.env.Now(), cat: cat, name: name}
}

// BeginProc opens a span on the calling process's own track — the
// per-process track ID every host-visible command uses.
func (t *Tracer) BeginProc(p *sim.Proc, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.Begin(p.Name(), cat, name)
}

// End closes the span at the current virtual time.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.emit(Event{
		TID: s.tid, Ph: 'X', TS: s.start,
		Dur: sim.Duration(s.t.env.Now() - s.start),
		Cat: s.cat, Name: s.name,
	})
}

// Instant records a zero-duration event (a gate rejection, a power cut).
func (t *Tracer) Instant(track, cat, name string) {
	if t == nil {
		return
	}
	t.emit(Event{TID: t.tid(track), Ph: 'i', TS: t.env.Now(), Cat: cat, Name: name})
}

// Count records a counter sample (write-buffer occupancy, queue depth);
// trace viewers render the series as a filled graph on its own track.
func (t *Tracer) Count(track, name string, v float64) {
	if t == nil {
		return
	}
	t.emit(Event{TID: t.tid(track), Ph: 'C', TS: t.env.Now(), Name: name, Val: v})
}

// jsonEvent is the Chrome trace-event wire format (the subset Perfetto
// and chrome://tracing consume). Timestamps and durations are
// microseconds; fractional values carry the nanosecond precision.
type jsonEvent struct {
	Name string                 `json:"name,omitempty"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

func usec(t sim.Time) float64      { return float64(t) / 1e3 }
func usecD(d sim.Duration) float64 { return float64(d) / 1e3 }

// WriteJSON exports this tracer alone as a Chrome trace (pid 1).
func (t *Tracer) WriteJSON(w io.Writer) error {
	return WriteTraceJSON(w, []TracePart{{Name: "sim", Tracer: t}})
}

// TracePart names one tracer inside a combined trace file; each part
// becomes a Chrome trace "process" so several environments (one per
// experiment data point) coexist in one Perfetto view.
type TracePart struct {
	Name   string
	Tracer *Tracer
}

// WriteTraceJSON writes the combined Chrome trace-event JSON for the
// given parts: {"traceEvents": [...], "displayTimeUnit": "ns"}.
func WriteTraceJSON(w io.Writer, parts []TracePart) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev jsonEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	for pi, part := range parts {
		t := part.Tracer
		if t == nil {
			continue
		}
		pid := pi + 1
		name := part.Name
		if name == "" {
			name = fmt.Sprintf("env%d", pid)
		}
		if err := emit(jsonEvent{Ph: "M", Name: "process_name", PID: pid,
			Args: map[string]interface{}{"name": name}}); err != nil {
			return err
		}
		for tid, track := range t.tracks {
			if err := emit(jsonEvent{Ph: "M", Name: "thread_name", PID: pid, TID: tid,
				Args: map[string]interface{}{"name": track}}); err != nil {
				return err
			}
			if err := emit(jsonEvent{Ph: "M", Name: "thread_sort_index", PID: pid, TID: tid,
				Args: map[string]interface{}{"sort_index": tid}}); err != nil {
				return err
			}
		}
		for _, ev := range t.Events() {
			je := jsonEvent{
				Name: ev.Name, Cat: ev.Cat, Ph: string(ev.Ph),
				TS: usec(ev.TS), PID: pid, TID: ev.TID,
			}
			switch ev.Ph {
			case 'X':
				je.Dur = usecD(ev.Dur)
			case 'i':
				je.S = "t" // thread-scoped instant
			case 'C':
				je.Args = map[string]interface{}{"value": ev.Val}
			}
			if err := emit(je); err != nil {
				return err
			}
		}
		if t.dropped > 0 {
			if err := emit(jsonEvent{Ph: "M", Name: "dropped_events", PID: pid,
				Args: map[string]interface{}{"count": t.dropped}}); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
