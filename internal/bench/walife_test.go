package bench

import (
	"strings"
	"testing"
)

// TestWalLifeShape pins what EXPERIMENTS.md reads off the wal-life
// table: the BA byte path commits faster, alone and in a group, and a
// tail reader sees a record sooner; of the timed rows the baseline wins
// only rotate_us, the cost of sealing a segment out of the capacitor's
// domain (BA recovers faster: its unpin and its probes run under the
// scan); both paths truncate as often.
func TestWalLifeShape(t *testing.T) {
	tab := walLifeTable(runner(tiny))
	for _, row := range []string{"commit_1_us", "commit_8_us", "tail_lag_us"} {
		if ba, sync := get(t, tab, row, "ba"), get(t, tab, row, "block+flush"); ba >= sync {
			t.Errorf("%s: BA %.2f should beat block+flush %.2f", row, ba, sync)
		}
	}
	for _, r := range tab.Rows {
		if !strings.HasSuffix(r.X, "_us") {
			continue
		}
		wins := r.Vals[1] < r.Vals[0]
		if want := r.X == "rotate_us"; wins != want {
			t.Errorf("%s: ba %.2f, block+flush %.2f: the baseline wins is %v, want %v", r.X, r.Vals[0], r.Vals[1], wins, want)
		}
	}
	if ba, sync := get(t, tab, "truncations", "ba"), get(t, tab, "truncations", "block+flush"); ba != sync || ba == 0 {
		t.Errorf("truncations: BA %.0f, block+flush %.0f; want equal and nonzero", ba, sync)
	}
}
