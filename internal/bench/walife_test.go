package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestWalLifeSmoke runs the lifecycle evaluation end to end on a small
// sweep: the feature table renders for both modes and no crash point
// violates the durability contract.
func TestWalLifeSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := runWalLife(runner(Quick), &buf, "wal-life", 8); err != nil {
		t.Fatalf("runWalLife: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"WAL-LIFE", "commit_1_us", "commits/flush", "recover_us", "recover_read_cmds",
		"campaign walseg-ba:", "campaign walseg-sync:", "violations: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWalLifeDeterminism: the wal-life report — feature table and
// campaign reports, 8 points a mode — run through Run is byte-identical
// across two -j 1 runs and a -j 8 run.
func TestWalLifeDeterminism(t *testing.T) {
	exps := []Experiment{{ID: "wal-life-8", Run: func(r *Runner, w io.Writer) error { return runWalLife(r, w, "wal-life", 8) }}}
	run := func(jobs int) string {
		var buf bytes.Buffer
		res, err := Run(Config{Experiments: exps, Jobs: jobs}, &buf)
		if err != nil || res.Failures > 0 {
			t.Fatalf("wal-life at -j %d: %v\n%s", jobs, err, buf.String())
		}
		return buf.String()
	}
	j1 := run(1)
	if j1 != run(1) {
		t.Fatalf("wal-life not deterministic across identical -j 1 runs")
	}
	if j1 != run(8) {
		t.Fatalf("wal-life differs between -j 1 and -j 8")
	}
}
