package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestMergedGaugesKeepTheMax merges two environments that report one
// gauge at different levels, collected in both orders: the -metrics and
// -timeline artifacts are byte-identical and read the larger level,
// though the environment reporting it sorts first ("a" < "b").
func TestMergedGaugesKeepTheMax(t *testing.T) {
	type level struct {
		counter string
		g       float64
	}
	artifacts := func(order ...level) string {
		c := obs.NewCollector(false)
		c.EnableSampling()
		for _, l := range order {
			set := obs.Of(sim.NewEnv())
			c.Collect(set)
			set.Registry().Counter(l.counter).Inc()
			set.Env().Go("w", func(p *sim.Proc) {
				set.Registry().Gauge("g").Set(l.g)
				p.Sleep(2 * sim.Millisecond)
			})
			set.Env().Run()
		}
		var buf bytes.Buffer
		if err := c.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteTimelineJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	busy, idle := level{"a", 0.9}, level{"b", 0.1}
	got := artifacts(busy, idle)
	if other := artifacts(idle, busy); got != other {
		t.Fatalf("merged artifacts depend on collection order:\n%s\n---\n%s", got, other)
	}
	if n := strings.Count(got, `"g": 0.9`); n != 2 || strings.Contains(got, `"g": 0.1`) {
		t.Fatalf("merged gauge g does not read 0.9 in the snapshot and the timeline window:\n%s", got)
	}
}

// TestCollectorFoldIsOrderFree is why the collector merges in
// collection order: four environments with different counters, gauges
// and histograms, over different spans of virtual time, give
// byte-identical merged -metrics and -timeline artifacts collected
// forward and in reverse.
func TestCollectorFoldIsOrderFree(t *testing.T) {
	gauges := []float64{0.3, 0.9, 0.1, 0.5}
	artifacts := func(order ...int) (metrics, timeline string) {
		c := obs.NewCollector(false)
		c.EnableSampling()
		for _, i := range order {
			set := obs.Of(sim.NewEnv())
			c.Collect(set)
			reg := set.Registry()
			set.Env().Go("w", func(p *sim.Proc) {
				for k := 0; k <= i; k++ {
					reg.Counter("ops").Inc()
					reg.Counter(fmt.Sprintf("env%d.ops", i)).Add(uint64(k + 1))
					reg.Gauge("depth").Set(gauges[i] * float64(k+1))
					reg.Histo("lat_ns").Observe(sim.Duration(1+i*k) * sim.Microsecond)
					p.Sleep(sim.Duration(i+1) * 700 * sim.Microsecond)
				}
			})
			set.Env().Run()
		}
		var m, tl bytes.Buffer
		if err := c.WriteMetricsJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteTimelineJSON(&tl); err != nil {
			t.Fatal(err)
		}
		return m.String(), tl.String()
	}
	m1, tl1 := artifacts(0, 1, 2, 3)
	m2, tl2 := artifacts(3, 2, 1, 0)
	if m1 != m2 {
		t.Errorf("merged metrics depend on collection order:\n%s\n---\n%s", m1, m2)
	}
	if tl1 != tl2 {
		t.Errorf("merged timeline depends on collection order:\n%s\n---\n%s", tl1, tl2)
	}
	for _, want := range []string{`"ops": 10`, `"env3.ops": 10`, `"depth": 2`} {
		if !strings.Contains(m1, want) {
			t.Errorf("merged metrics lack %s:\n%s", want, m1)
		}
	}
}
