package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/obs"
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

// TestObserversDoNotPerturb: the observers only watch. Each unit —
// two paper artifacts, a crash point and a fleet scenario — runs
// through Run with a bare collector and with full tracing plus the
// timeline sampler; the stdout, the event count and the virtual time
// simulated are identical in both runs. Each trace records every event
// (no dropped_events), and a unit traced at -j 1 and at -j 8 writes the
// same bytes. Their host cost is `bench2b -benchjson` taken with and
// without the observer.
func TestObserversDoNotPerturb(t *testing.T) {
	for _, id := range []string{"probe", "commit", "crash-smoke/walseg/3", "fleet-smoke/fleet-smoke"} {
		bareOut, bare := runUnit(t, Config{Jobs: 2, Metrics: true}, id)
		if bare.Events == 0 || bare.VirtualNs == 0 {
			t.Fatalf("%s: bare run simulated %d events over %d ns", id, bare.Events, bare.VirtualNs)
		}
		var traces [2]bytes.Buffer
		for k, jobs := range []int{1, 8} {
			gotOut, got := runUnit(t, Config{Jobs: jobs, Metrics: true, Timeline: true, Trace: true}, id)
			if gotOut != bareOut {
				t.Errorf("%s -j %d: stdout differs from the bare run:\n--- bare\n%s--- traced\n%s", id, jobs, bareOut, gotOut)
			}
			if got.Events != bare.Events || got.VirtualNs != bare.VirtualNs {
				t.Errorf("%s -j %d: %d events over %d ns, bare run %d over %d ns", id, jobs, got.Events, got.VirtualNs, bare.Events, bare.VirtualNs)
			}
			if err := got.WriteTraceJSON(&traces[k]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Contains(traces[0].Bytes(), []byte(`"ph":"X"`)) || bytes.Contains(traces[0].Bytes(), []byte(`"dropped_events"`)) {
			t.Errorf("%s: trace of %d bytes has no spans or dropped events", id, traces[0].Len())
		}
		if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
			t.Errorf("%s: the trace at -j 8 differs from the one at -j 1", id)
		}
	}
}
