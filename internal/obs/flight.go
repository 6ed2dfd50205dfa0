package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"twobssd/internal/sim"
)

// The flight recorder: a bounded, always-affordable ring of the most
// recent trace events of one environment, captured through the same
// instrumentation points as the full tracer but with constant memory —
// so reliability campaigns can leave it on for every crash point, fuzz
// seed and integrity check, and still hand over "the last N spans
// before the violation" plus metrics-at-failure when one finally
// fires. "640 crash points, 0 lost" is a result; a flight dump is what
// makes point 641 debuggable.

// FlightDepth is the flight recorder's ring capacity.
const FlightDepth = 256

// EnableFlightRecorder switches this environment's tracer into
// flight-recorder mode: a ring of the last FlightDepth events (spans,
// instants, counter samples), overwriting the oldest past capacity. If
// full tracing is already enabled the full tracer doubles as the
// recorder — it already holds everything — and is returned unchanged.
// Idempotent.
func (s *Set) EnableFlightRecorder() *Tracer {
	if s.tracer != nil {
		return s.tracer
	}
	s.tracer = newRingTracer(s.env)
	return s.tracer
}

// FlightEvent is one exported flight-recorder event.
type FlightEvent struct {
	TimeNs int64   `json:"time_ns"`
	DurNs  int64   `json:"dur_ns,omitempty"`
	Kind   string  `json:"kind"` // span | instant | count
	Track  string  `json:"track"`
	Cat    string  `json:"cat,omitempty"`
	Name   string  `json:"name"`
	Value  float64 `json:"value,omitempty"`
}

// FlightDump is the post-mortem artifact of one environment: why it
// was taken, the full metrics registry at that moment, and the most
// recent trace events in chronological order.
type FlightDump struct {
	Schema  string        `json:"schema"`
	Reason  string        `json:"reason"`
	Events  []FlightEvent `json:"events"`
	Metrics Snapshot      `json:"metrics"`
}

// FlightSchema identifies the flight-dump JSON format.
const FlightSchema = "twobssd/flight-v1"

// FlightDump captures the environment's current flight-recorder state:
// metrics at this instant plus the recorded event tail. Works with
// either tracer mode (a full tracer contributes its newest
// FlightDepth events). With no tracer at all the dump still
// carries the metrics snapshot.
func (s *Set) FlightDump(reason string) FlightDump {
	d := FlightDump{Schema: FlightSchema, Reason: reason, Metrics: s.Snapshot()}
	t := s.tracer
	if t == nil {
		return d
	}
	evs := t.Events()
	if !t.ring && len(evs) > FlightDepth {
		evs = evs[len(evs)-FlightDepth:]
	}
	d.Events = make([]FlightEvent, 0, len(evs))
	for _, ev := range evs {
		fe := FlightEvent{
			TimeNs: int64(ev.TS),
			Track:  t.Track(ev.TID),
			Cat:    ev.Cat,
			Name:   ev.Name,
		}
		switch ev.Ph {
		case 'X':
			fe.Kind, fe.DurNs = "span", int64(ev.Dur)
		case 'i':
			fe.Kind = "instant"
		case 'C':
			fe.Kind, fe.Value = "count", ev.Val
		default:
			fe.Kind = string(ev.Ph)
		}
		d.Events = append(d.Events, fe)
	}
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteText renders the dump for inclusion in a campaign report:
// the event tail first (most recent last), then the metric lines.
func (d FlightDump) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %s (%d events)\n", d.Reason, len(d.Events)); err != nil {
		return err
	}
	for _, ev := range d.Events {
		switch ev.Kind {
		case "span":
			if _, err := fmt.Fprintf(w, "  %12d ns span    %-24s %s/%s dur=%v\n",
				ev.TimeNs, ev.Track, ev.Cat, ev.Name, sim.Duration(ev.DurNs)); err != nil {
				return err
			}
		case "count":
			if _, err := fmt.Fprintf(w, "  %12d ns count   %-24s %s=%g\n",
				ev.TimeNs, ev.Track, ev.Name, ev.Value); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "  %12d ns %-7s %-24s %s/%s\n",
				ev.TimeNs, ev.Kind, ev.Track, ev.Cat, ev.Name); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, "metrics at failure:\n"); err != nil {
		return err
	}
	return d.Metrics.WriteText(w)
}
