package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one traced interval on both clocks. Spans are recorded from
// the benchmark's own files, around its calls into the repository;
// spans inside the repository are a later change.
type Span struct {
	Name     string
	Track    int32 // client / tenant / round lane
	ID       int32
	Parent   int32 // -1 for a root
	SimStart int64 // virtual ns
	SimEnd   int64
	HostNs   int64 // wall ns since the tracer started
	HostEnd  int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced run: every method is a no-op.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func NewTracer(capacity int) *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, track, parent int32, simNow int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{
		Name: name, Track: track, ID: id, Parent: parent,
		SimStart: simNow, SimEnd: simNow, HostNs: int64(time.Since(t.t0)),
	})
	return id
}

// End closes span id.
func (t *Tracer) End(id int32, simNow int64) {
	if t == nil {
		return
	}
	t.spans[id].SimEnd = simNow
	t.spans[id].HostEnd = int64(time.Since(t.t0))
}

// selfTimes returns, per span, its virtual duration minus the part of
// that interval its direct children cover (overlapping children count
// once).
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.SimEnd - s.SimStart
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].SimStart < spans[kids[b]].SimStart })
		covered, edge := int64(0), s.SimStart
		for _, k := range kids {
			from, to := spans[k].SimStart, spans[k].SimEnd
			if from < edge {
				from = edge
			}
			if to > s.SimEnd {
				to = s.SimEnd
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] -= covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are virtual microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing). Host times ride along as arguments.
func (t *Tracer) WriteChrome(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X",
			Ts: float64(s.SimStart) / 1e3, Dur: float64(s.SimEnd-s.SimStart) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent,
				"host_start_ns": s.HostNs, "host_dur_ns": s.HostEnd - s.HostNs,
				"self_sim_ns": self[i],
			},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
