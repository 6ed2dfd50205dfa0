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
// cover every instrumented stage of the datapath.
func TestProbeStageCoverage(t *testing.T) {
	col := obs.NewCollector(true)
	col.Install()
	defer col.Uninstall()

	tab := Probe(runner(Quick))
	if len(tab.Rows) == 0 {
		t.Fatal("probe produced no rows")
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
	if snap.Counters["2bssd.gate_rejects"] == 0 {
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
