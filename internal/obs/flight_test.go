package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// TestFlightDumpKeepsNewest checks a dump of a traced run keeps exactly
// the newest FlightDepth events, in chronological order, with the
// metrics of the moment it was taken.
func TestFlightDumpKeepsNewest(t *testing.T) {
	env := sim.NewEnv()
	set := obs.Of(env)
	tr := set.EnableTracing()
	set.Registry().Counter("ops").Add(7)
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < obs.FlightDepth+6; i++ {
			sp := tr.Begin("w", "test", "op")
			p.Sleep(10)
			sp.End()
		}
	})
	env.Run()

	d := set.FlightDump("test violation")
	if d.Schema != obs.FlightSchema || d.Reason != "test violation" {
		t.Fatalf("dump header = %q %q", d.Schema, d.Reason)
	}
	if len(d.Events) != obs.FlightDepth || d.Events[0].Kind != "span" {
		t.Fatalf("dump events = %+v", d.Events)
	}
	// The oldest six spans fell off: the first kept one began at 60 ns.
	if first := d.Events[0].TimeNs; first != 60 {
		t.Fatalf("oldest dumped event at %d ns, want 60", first)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TimeNs < d.Events[i-1].TimeNs {
			t.Fatalf("dump events out of order: %d then %d", d.Events[i-1].TimeNs, d.Events[i].TimeNs)
		}
	}
	// The newest span ends at run end: it began 10 ns before it.
	if got, want := d.Events[len(d.Events)-1].TimeNs, int64(env.Now())-10; got != want {
		t.Fatalf("newest event at %d, want %d", got, want)
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
