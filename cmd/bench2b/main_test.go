package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twobssd/internal/bench"
)

func drive(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunPrintsTable(t *testing.T) {
	code, out, errs := drive("tab1")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.HasPrefix(out, "== TAB1: 2B-SSD specification (Table I) ==\n") || !strings.Contains(out, "800 GB") {
		t.Fatalf("stdout is not Table I:\n%s", out)
	}
}

// An unknown id is a usage error, and the usage text is generated: its
// id lists are exactly the registry (so a deleted experiment cannot
// linger there) and its flag list is exactly the flag set.
func TestRunUnknownExperiment(t *testing.T) {
	code, out, errs := drive("fig99")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing printed", code, out)
	}
	if !strings.Contains(errs, `unknown experiment "fig99"`) {
		t.Errorf("stderr does not name the bad id:\n%s", errs)
	}
	var listed []string
	flags := 0
	for _, line := range strings.Split(errs, "\n") {
		for _, head := range []string{"experiments: ", `reliability (not in "all"): `} {
			if ids, ok := strings.CutPrefix(line, head); ok {
				ids, _, _ = strings.Cut(ids, " all (default")
				listed = append(listed, strings.Fields(ids)...)
			}
		}
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	var want []string
	for _, all := range []bool{true, false} {
		for _, ex := range bench.Experiments() {
			if ex.InAll == all {
				want = append(want, ex.ID)
			}
		}
	}
	if got, want := strings.Join(listed, " "), strings.Join(want, " "); got != want {
		t.Errorf("usage lists experiments\n  %s\nregistry has\n  %s", got, want)
	}
	if flags != 13 {
		t.Errorf("usage documents %d flags, want 13:\n%s", flags, errs)
	}
}

// A report path that cannot be created fails before any experiment
// spends time running.
func TestRunBadReportPathFailsFast(t *testing.T) {
	ran := false
	defer func(old []bench.Experiment) { table = old }(table)
	table = []bench.Experiment{{ID: "stub", InAll: true, Run: func(*bench.Runner, io.Writer) error {
		ran = true
		return nil
	}}}
	code, _, errs := drive("-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "m.json"), "stub")
	if code != 1 || ran {
		t.Fatalf("exit %d, experiment ran = %v; want 1 and false (stderr %q)", code, ran, errs)
	}
}

// A failed gate does not stop the run: every selected experiment still
// prints, the failure is reported after its output, and the exit is 1.
func TestRunGateFailure(t *testing.T) {
	defer func(old []bench.Experiment) { table = old }(table)
	table = append([]bench.Experiment{{ID: "bad-gate", Run: func(_ *bench.Runner, w io.Writer) error {
		io.WriteString(w, "campaign report\n")
		return errors.New("3 crash points violated the durability contract")
	}}}, table...)
	for _, jobs := range []string{"1", "4"} {
		code, out, errs := drive("-j", jobs, "bad-gate", "tab1")
		if code != 1 {
			t.Fatalf("-j %s: exit %d, want 1", jobs, code)
		}
		want := "campaign report\nFAIL: 3 crash points violated the durability contract\n== TAB1:"
		if !strings.HasPrefix(out, want) {
			t.Errorf("-j %s: stdout\n%s\nwant prefix\n%s", jobs, out, want)
		}
		if !strings.Contains(errs, "gate failed") {
			t.Errorf("-j %s: stderr %q does not say a gate failed", jobs, errs)
		}
	}
}

// The gate compares totals. A run that got cheaper by deleting events —
// half the events, so half the events/sec and twice the allocs/event of
// its baseline — passes; more wall time or more allocations, for the
// run or for one experiment, does not.
func TestGateComparesTotalsNotRatios(t *testing.T) {
	report := func(wallMs int64, mallocs, events uint64) kernelReport {
		r := kernelReport{
			WallNs: wallMs * 1e6, Mallocs: mallocs, Events: events,
			Experiments: []expReport{{ID: "fig9", WallNs: wallMs * 1e6 / 2, Mallocs: mallocs / 2, Events: events / 2}},
		}
		r.EventsPerSec = float64(events) / (float64(wallMs) / 1e3)
		r.AllocsPerEvent = float64(mallocs) / float64(events)
		return r
	}
	basePath := filepath.Join(t.TempDir(), "base.json")
	var buf bytes.Buffer
	if err := jsonReport(report(2000, 400000, 4000000))(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(report(1900, 390000, 2000000), basePath); err != nil {
		t.Errorf("fewer events at lower cost was refused: %v", err)
	}
	if err := gate(report(2700, 400000, 4000000), basePath); err == nil || !strings.Contains(err.Error(), "wall time") {
		t.Errorf("+35%% wall time passed: %v", err)
	}
	if err := gate(report(2000, 460000, 4000000), basePath); err == nil || !strings.Contains(err.Error(), "allocations") {
		t.Errorf("+15%% allocations passed: %v", err)
	}
	one := report(2000, 400000, 4000000)
	one.Experiments[0].Mallocs += 40000 // +20 % in one experiment, +10 % in total
	if err := gate(one, basePath); err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Errorf("one experiment's allocation regression passed: %v", err)
	}
}
