package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// A run's metrics and timeline leave the process only as the
// collector's artifacts (bench2b -metrics and -timeline); there is no
// HTTP /metrics or /timeline endpoint. The two Endpoint tests pin that
// those artifacts carry what the endpoints exposed.

// collectedRun runs the standard small block workload under a sampling
// collector, with one planted reliability counter, and returns the
// collector.
func collectedRun(t *testing.T) *obs.Collector {
	t.Helper()
	c := obs.NewCollector(false)
	c.EnableSampling()

	env := sim.NewEnv()
	set := obs.Of(env)
	c.Collect(set)
	dev := device.New(env, device.ULLSSD())
	env.Go("w", func(p *sim.Proc) {
		ps := dev.PageSize()
		page := make([]byte, ps)
		for i := 0; i < 16; i++ {
			page[0] = byte(i)
			if err := dev.WritePages(p, ftl.LBA(i), page); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if err := dev.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	set.Registry().Counter("fault.trips").Add(3)
	env.Run()
	return c
}

// TestMetricsEndpoint checks the -metrics artifact: the merged snapshot
// JSON carries the run's device, fault and NAND series.
func TestMetricsEndpoint(t *testing.T) {
	c := collectedRun(t)
	var buf bytes.Buffer
	if err := c.WriteMetricsJSON(&buf); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics artifact is not snapshot JSON: %v\n%s", err, buf.Bytes())
	}
	if got := snap.Counters["ULL-SSD.write_cmds"]; got != 16 {
		t.Fatalf("ULL-SSD.write_cmds = %d, want 16", got)
	}
	if got := snap.Counters["fault.trips"]; got != 3 {
		t.Fatalf("fault.trips = %d, want 3", got)
	}
	if h := snap.Histograms["nand.program_ns"]; h.N == 0 || h.P50Ns <= 0 {
		t.Fatalf("nand.program_ns = %+v, want samples with a positive median", h)
	}
	if snap.VirtualTimeNs <= 0 {
		t.Fatal("metrics artifact carries no virtual time")
	}
}

// TestTimelineEndpoint checks the -timeline artifact in both formats:
// the JSON decodes to the collector's merged timeline, and the CSV has
// the long-form header.
func TestTimelineEndpoint(t *testing.T) {
	c := collectedRun(t)
	var buf bytes.Buffer
	if err := c.WriteTimelineJSON(&buf); err != nil {
		t.Fatalf("WriteTimelineJSON: %v", err)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(buf.Bytes(), &tl); err != nil {
		t.Fatalf("timeline artifact is not timeline JSON: %v\n%s", err, buf.Bytes())
	}
	if tl.Schema != obs.TimelineSchema || len(tl.Points) == 0 {
		t.Fatalf("timeline schema=%q points=%d", tl.Schema, len(tl.Points))
	}
	if want := c.MergedTimeline(); len(tl.Points) != len(want.Points) {
		t.Fatalf("artifact has %d points, collector has %d", len(tl.Points), len(want.Points))
	}

	var csv bytes.Buffer
	if err := c.WriteTimelineCSV(&csv); err != nil {
		t.Fatalf("WriteTimelineCSV: %v", err)
	}
	if !strings.HasPrefix(csv.String(), "window,time_ns,span_ns,kind,name") {
		t.Fatalf("csv header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}
