package main

import (
	"bytes"
	"encoding/json"
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

// An unknown id or a malformed address is a usage error, and the usage
// text is generated: its id lists are exactly the registry (so a
// deleted experiment cannot linger there).
func TestRunUnknownExperiment(t *testing.T) {
	for _, bad := range []struct{ id, says string }{
		{"crash/nosuchrow/3", `sweeps no row "nosuchrow"`},
		{"crash-smoke/walseg/32", "0 to 31"},
		{"fuzz-smoke/oracle/seven", "0 to 31"},
		{"fleet/fleet-nosuch", `no scenario "fleet-nosuch"`},
		{"fig9/fig9-lsm", "one unit"},
		{"fig99/x", `unknown experiment "fig99/x"`},
	} {
		code, out, errs := drive(bad.id)
		if code != 2 || out != "" || !strings.Contains(errs, bad.id) || !strings.Contains(errs, bad.says) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, nothing printed and %q", bad.id, code, out, errs, bad.says)
		}
	}
	code, out, errs := drive("fig99")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing printed", code, out)
	}
	if !strings.Contains(errs, `unknown experiment "fig99"`) {
		t.Errorf("stderr does not name the bad id:\n%s", errs)
	}
	var listed []string
	for _, line := range strings.Split(errs, "\n") {
		for _, head := range []string{"experiments: ", `reliability (not in "all"): `} {
			if ids, ok := strings.CutPrefix(line, head); ok {
				ids, _, _ = strings.Cut(ids, " all (default")
				listed = append(listed, strings.Fields(ids)...)
			}
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
}

// The flag set is pinned: every flag is a dimension the command's
// users and tests have to cover, so a new one is a decision to argue
// for in review. The fuzz seed count (256) and the timeline cadence
// (1 ms) are constants, and naming them is a usage error.
func TestFlagSet(t *testing.T) {
	code, _, errs := drive("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	var flags []string
	for _, line := range strings.Split(errs, "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			flags = append(flags, name)
		}
	}
	const want = "benchgate benchjson cpuprofile full j memprofile metrics timeline trace"
	if got := strings.Join(flags, " "); len(flags) != 9 || got != want {
		t.Errorf("usage documents %d flags\n  %s\nwant 9\n  %s", len(flags), got, want)
	}
	for _, gone := range [][]string{{"-seeds", "8", "fuzz-smoke"}, {"-sample", "1ms", "tab1"}} {
		code, out, errs := drive(gone...)
		if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined: "+gone[0]) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want a usage error", gone[0], code, out, errs)
		}
	}
}

// -trace records one unit: a paper artifact, a campaign point or a
// fleet scenario. Anything larger is a usage error whose usage names
// the three forms, and nothing runs; one unit writes a trace and
// metrics that parse.
func TestTraceTakesOneUnit(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "out.trace.json"), filepath.Join(dir, "m.json")
	for _, sel := range []struct {
		ids  []string
		says string
	}{
		{[]string{"all"}, "-trace records one unit, not all"}, {[]string{"crash"}, "-trace records one unit"},
		{[]string{"crash/walseg"}, "name a point of crash/walseg"}, {[]string{"probe", "commit"}, "not probe commit"},
		{[]string{"fleet-smoke"}, "-trace records one unit"},
	} {
		code, out, errs := drive(append([]string{"-trace", trace}, sel.ids...)...)
		if code != 2 || out != "" || !strings.Contains(errs, sel.says) ||
			!strings.Contains(errs, "<exp>/<row>/<point>") || !strings.Contains(errs, "<exp>/<scenario>") {
			t.Errorf("-trace %v: exit %d, stdout %q, stderr %q; want a usage error saying %q and naming the unit forms", sel.ids, code, out, errs, sel.says)
		}
		if _, err := os.Stat(trace); err == nil {
			t.Fatalf("-trace %v: wrote a trace", sel.ids)
		}
	}
	for _, unit := range []string{"probe", "crash-smoke/walseg/3", "fleet-smoke/fleet-smoke"} {
		code, out, errs := drive("-metrics", metrics, "-trace", trace, unit)
		if code != 0 || errs != "" || out == "" {
			t.Fatalf("%s: exit %d, stderr %q", unit, code, errs)
		}
		for _, path := range []string{trace, metrics} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("%s: %s does not parse: %v", unit, filepath.Base(path), err)
			}
		}
	}
}

// A job count below 1 is a usage error caught before anything runs:
// the runner would otherwise run it at 1 and say nothing.
func TestRunRejectsJobsBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		code, out, errs := drive("-j", n, "tab1")
		if code != 2 || out != "" {
			t.Fatalf("-j %s: exit %d, stdout %q; want 2 and nothing printed", n, code, out)
		}
		if !strings.Contains(errs, "-j "+n+": want at least 1") || !strings.Contains(errs, "usage: bench2b") {
			t.Errorf("-j %s: stderr does not name the bad count and print the usage:\n%s", n, errs)
		}
	}
}

// -timeline writes the merged timeline after the run, as JSON or (by
// extension) CSV, and the file's bytes do not depend on -j.
func TestRunWritesTimeline(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{"json", "csv"} {
		var first []byte
		for _, jobs := range []string{"1", "2"} {
			path := filepath.Join(dir, "t-j"+jobs+"."+ext)
			if code, _, errs := drive("-j", jobs, "-timeline", path, "probe"); code != 0 {
				t.Fatalf("-j %s -timeline %s: exit %d, stderr %q", jobs, filepath.Base(path), code, errs)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Errorf("-timeline %s: -j %s wrote different bytes than -j 1", ext, jobs)
			}
		}
		switch ext {
		case "json":
			var tl struct {
				Schema string            `json:"schema"`
				Points []json.RawMessage `json:"points"`
			}
			if err := json.Unmarshal(first, &tl); err != nil {
				t.Fatal(err)
			}
			if tl.Schema != "twobssd/timeline-v1" || len(tl.Points) == 0 {
				t.Errorf("timeline JSON: schema %q, %d points; want twobssd/timeline-v1 and some points", tl.Schema, len(tl.Points))
			}
		case "csv":
			if !bytes.HasPrefix(first, []byte("window,time_ns,")) {
				t.Errorf("timeline CSV does not start with the header: %.60q", first)
			}
		}
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
	report := func(wallMs int64, mallocs, events uint64) *bench.Result {
		r := &bench.Result{
			WallNs: wallMs * 1e6, Mallocs: mallocs, Events: events,
			Experiments: []bench.ExpResult{{ID: "fig9", WallNs: wallMs * 1e6 / 2, Mallocs: mallocs / 2, Events: events / 2}},
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

// digest runs alone: naming it beside another id is a usage error, and
// nothing runs.
func TestDigestRunsAlone(t *testing.T) {
	code, out, errs := drive("digest", "tab1")
	if code != 2 || out != "" || !strings.Contains(errs, "digest runs alone") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a usage error", code, out, errs)
	}
}

// The digest hashes what the simulation decides, never what the host's
// clock or allocator measured: those members go at any depth, and the
// rest keeps its literal numbers.
func TestStripHostFields(t *testing.T) {
	got, err := stripHostFields([]byte(`{"wall_ns": 12, "experiments": [{"id": "fig9", "mallocs": 3, "events": 1.50}], "virtual_ns": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"experiments":[{"events":1.50,"id":"fig9"}],"virtual_ns":7}`; string(got) != want {
		t.Errorf("stripped to %s, want %s", got, want)
	}
}
