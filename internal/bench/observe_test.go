package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// TestProbeStageCoverage runs the probe under a collector (the same
// wiring `bench2b -metrics -trace` uses) and asserts the artifacts
// cover every instrumented stage of the datapath, and that the table's
// counter rows — read back from the registry by name — hold the counts
// one pass over the stages produces.
func TestProbeStageCoverage(t *testing.T) {
	col := obs.NewCollector(true)
	col.Install()
	defer col.Uninstall()

	tab := Probe(runner(Quick))
	for _, row := range []struct {
		x    string
		want float64
	}{
		{"block write cmds", 10}, {"block read cmds", 10},
		{"nand page programs", 82}, {"nand page reads", 10},
		{"mmio writes", 41}, {"mmio syncs", 42},
		{"ba pins", 2}, {"ba flushes", 2}, {"ba syncs", 2}, {"dma reads", 1},
	} {
		if got := get(t, tab, row.x, "value"); got != row.want {
			t.Errorf("probe row %q = %v, want %v", row.x, got, row.want)
		}
	}

	var mbuf bytes.Buffer
	if err := col.WriteMetricsJSON(&mbuf); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mbuf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	// Every instrumented package contributes at least one counter and
	// one latency histogram (the ISSUE's acceptance floor).
	for _, prefix := range []string{"nand.", "ftl.", "pcie.", "ULL-SSD.", "2bssd.", "wal."} {
		var nc, nh int
		for name := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				nc++
			}
		}
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, prefix) && h.N > 0 {
				nh++
			}
		}
		if nc == 0 || nh == 0 {
			t.Errorf("stage %q: %d counters, %d non-empty histograms; want >=1 of each", prefix, nc, nh)
		}
	}
	if n, ok := snap.Counters["2bssd.gate_rejects"]; !ok || n == 0 {
		t.Error("probe did not exercise the LBA checker")
	}

	var tbuf bytes.Buffer
	if err := col.WriteTraceJSON(&tbuf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbuf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			cats[ev.Cat] = true
		}
	}
	// ftl is absent on purpose: its only span is the GC pause, and the
	// quick probe never fills the device far enough to trigger GC.
	for _, want := range []string{"nand", "pcie", "device", "2bssd", "wal"} {
		if !cats[want] {
			t.Errorf("trace has no spans in category %q (got %v)", want, cats)
		}
	}
}

// TestObserversDoNotPerturb: the observers only watch. Probe and
// CommitOverhead run under a bare collector, under the flight recorder
// every campaign point and fuzz seed leaves on, and under full tracing
// plus the timeline sampler over a flight recorder (the tracer takes the
// recorder over in place); the tables, the event count and the virtual
// time simulated are identical in every run. Their host cost is
// `bench2b -benchjson` taken with and without the observer.
func TestObserversDoNotPerturb(t *testing.T) {
	type run struct {
		tables  string
		events  uint64
		virtual sim.Time
	}
	measure := func(tracing, sampling, flight bool) run {
		col := obs.NewCollector(tracing)
		if sampling {
			col.EnableSampling()
		}
		col.Install()
		defer col.Uninstall()
		if flight {
			collect := obs.OnNewSet
			obs.OnNewSet = func(s *obs.Set) {
				s.EnableFlightRecorder()
				collect(s)
			}
		}
		var out bytes.Buffer
		r := NewRunner(Quick, 2)
		Probe(r).Print(&out)
		CommitOverhead(r).Print(&out)
		return run{out.String(), col.TotalEvents(), col.TotalVirtual()}
	}
	bare := measure(false, false, false)
	if bare.events == 0 || bare.virtual == 0 {
		t.Fatalf("bare run simulated %d events over %d ns", bare.events, int64(bare.virtual))
	}
	for _, c := range []struct {
		name                      string
		tracing, sampling, flight bool
	}{
		{"flight recorder", false, false, true},
		{"tracing + sampler + flight recorder", true, true, true},
	} {
		got := measure(c.tracing, c.sampling, c.flight)
		if got.tables != bare.tables {
			t.Errorf("%s: tables differ from the bare run:\n--- bare\n%s--- observed\n%s", c.name, bare.tables, got.tables)
		}
		if got.events != bare.events || got.virtual != bare.virtual {
			t.Errorf("%s: %d events over %d ns, bare run %d over %d ns",
				c.name, got.events, int64(got.virtual), bare.events, int64(bare.virtual))
		}
	}
}
