package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// TestFlightRecorderRing checks the bounded ring keeps exactly the
// newest events, in chronological order, with constant memory.
func TestFlightRecorderRing(t *testing.T) {
	env := sim.NewEnv()
	set := obs.Of(env)
	tr := set.EnableFlightRecorder()
	if !tr.Ring() {
		t.Fatal("flight recorder is not in ring mode")
	}
	set.Registry().Counter("ops").Add(7)
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < obs.FlightDepth+6; i++ {
			sp := tr.Begin("w", "test", "op")
			p.Sleep(10)
			sp.End()
		}
	})
	env.Run()

	evs := tr.Events()
	if len(evs) != obs.FlightDepth {
		t.Fatalf("ring holds %d events, want %d", len(evs), obs.FlightDepth)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("ring events out of order: %d then %d", evs[i-1].TS, evs[i].TS)
		}
	}
	// The newest span ends at run end: it began 10 ns before it.
	if got, want := evs[len(evs)-1].TS, env.Now()-10; got != want {
		t.Fatalf("newest event at %d, want %d", got, want)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}

	d := set.FlightDump("test violation")
	if d.Schema != obs.FlightSchema || d.Reason != "test violation" {
		t.Fatalf("dump header = %q %q", d.Schema, d.Reason)
	}
	if len(d.Events) != obs.FlightDepth || d.Events[0].Kind != "span" {
		t.Fatalf("dump events = %+v", d.Events)
	}
	if d.Metrics.Counters["ops"] != 7 {
		t.Fatalf("dump metrics ops = %d, want 7", d.Metrics.Counters["ops"])
	}

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back obs.FlightDump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("dump JSON does not round-trip: %v", err)
	}
	buf.Reset()
	if err := d.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"test violation", "span", "metrics at failure", "ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump text missing %q:\n%s", want, out)
		}
	}
}

// TestEnableTracingUpgradesRing checks that turning on full tracing
// over an existing flight recorder keeps its events and switches modes
// in place, so components holding the tracer pointer keep recording.
func TestEnableTracingUpgradesRing(t *testing.T) {
	env := sim.NewEnv()
	set := obs.Of(env)
	ring := set.EnableFlightRecorder()
	env.Go("early", func(p *sim.Proc) {
		for i := 0; i < obs.FlightDepth+2; i++ {
			ring.Instant("t", "c", "early")
			p.Sleep(1)
		}
	})
	env.Run()

	full := set.EnableTracing()
	if full != ring {
		t.Fatal("upgrade replaced the tracer instance")
	}
	if full.Ring() {
		t.Fatal("tracer still in ring mode after EnableTracing")
	}
	env.Go("late", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			full.Instant("t", "c", "late")
			p.Sleep(1)
		}
	})
	env.Run()

	evs := full.Events()
	// A full ring of surviving events + 10 post-upgrade events, chronological.
	if len(evs) != obs.FlightDepth+10 {
		t.Fatalf("events after upgrade = %d, want %d", len(evs), obs.FlightDepth+10)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order after upgrade at %d", i)
		}
	}
	if evs[0].Name != "early" || evs[len(evs)-1].Name != "late" {
		t.Fatalf("event names = %s..%s, want early..late", evs[0].Name, evs[len(evs)-1].Name)
	}
}

// TestFlightDumpWithoutTracer checks the dump still carries metrics
// when no recorder was enabled.
func TestFlightDumpWithoutTracer(t *testing.T) {
	env := sim.NewEnv()
	set := obs.Of(env)
	set.Registry().Counter("ops").Inc()
	d := set.FlightDump("no recorder")
	if len(d.Events) != 0 {
		t.Fatalf("dump has %d events with no tracer", len(d.Events))
	}
	if d.Metrics.Counters["ops"] != 1 {
		t.Fatal("dump missing metrics snapshot")
	}
}

// TestCollectorSkipsRingTracers checks that campaign flight recorders
// do not leak into the -trace Chrome export.
func TestCollectorSkipsRingTracers(t *testing.T) {
	c := obs.NewCollector(false)
	env := sim.NewEnv()
	set := obs.Of(env)
	tr := set.EnableFlightRecorder()
	env.Go("w", func(p *sim.Proc) { tr.Instant("t", "c", "x") })
	env.Run()
	c.Collect(set)
	var buf bytes.Buffer
	if err := c.WriteTraceJSON(&buf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	if strings.Contains(buf.String(), "\"x\"") {
		t.Fatalf("ring tracer events leaked into trace export:\n%s", buf.String())
	}
}
