package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestWalLifeSmoke runs the lifecycle evaluation end to end on a small
// sweep: the feature table renders for both modes and no crash point
// violates the durability contract.
func TestWalLifeSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := runWalLife(runner(Quick), &buf, 8); err != nil {
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

// TestWalLifeDeterminism: the full wal-life report — feature table,
// campaign reports, metrics — is byte-identical between -j1 and -j8.
func TestWalLifeDeterminism(t *testing.T) {
	run := func(jobs int) string {
		var buf bytes.Buffer
		if err := runWalLife(NewRunner(Quick, jobs), &buf, 8); err != nil {
			t.Fatalf("runWalLife at -j%d: %v", jobs, err)
		}
		return buf.String()
	}
	j1 := run(1)
	j1b := run(1)
	j8 := run(8)
	if j1 != j1b {
		t.Fatalf("wal-life not deterministic across identical -j1 runs")
	}
	if j1 != j8 {
		t.Fatalf("wal-life differs between -j1 and -j8")
	}
}
