package bench

import (
	"runtime"
	"strings"
	"testing"

	"twobssd/internal/core"
)

// tiny is a minimal scale so the full experiment matrix stays fast in
// unit tests; shape assertions use Quick where they need fidelity.
var tiny = Scale{LatReps: 3, AppOps: 600, Clients: 4, Records: 200, Nodes: 100}

// runner returns a fresh Runner at bench2b's default parallelism.
func runner(s Scale) *Runner { return NewRunner(s, runtime.NumCPU()) }

func get(t *testing.T, tab *Table, x, series string) float64 {
	t.Helper()
	v, ok := tab.Get(x, series)
	if !ok {
		t.Fatalf("%s: missing (%s, %s)", tab.ID, x, series)
	}
	return v
}

func TestSpecTable(t *testing.T) {
	tab := Spec()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table I rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Print(&sb)
	for _, want := range []string{"800 GB", "8 MB", "PCIe Gen.3 x4", "270 uF x 3"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig7aShape(t *testing.T) {
	tab := Fig7a(runner(Quick))
	// Anchor points from the paper.
	if v := get(t, tab, "4KB", "ULL-SSD"); v < 12 || v > 15 {
		t.Errorf("ULL 4KB read = %.1f us, want ~13.2", v)
	}
	if v := get(t, tab, "4KB", "DC-SSD"); v < 75 || v > 91 {
		t.Errorf("DC 4KB read = %.1f us, want ~83", v)
	}
	if v := get(t, tab, "4KB", "2B MMIO"); v < 135 || v > 165 {
		t.Errorf("MMIO 4KB read = %.1f us, want ~150", v)
	}
	// Crossovers: MMIO wins below ~350B vs ULL, ~2KB vs DC.
	if get(t, tab, "256B", "2B MMIO") >= get(t, tab, "256B", "ULL-SSD") {
		t.Error("MMIO should beat ULL at 256B")
	}
	if get(t, tab, "512B", "2B MMIO") <= get(t, tab, "512B", "ULL-SSD") {
		t.Error("ULL should beat MMIO at 512B")
	}
	if get(t, tab, "2KB", "2B MMIO") >= get(t, tab, "2KB", "DC-SSD") {
		t.Error("MMIO should beat DC at 2KB")
	}
	// Read DMA: ~2.5x faster than MMIO at 4KB, loses below 1KB.
	speedup := get(t, tab, "4KB", "2B MMIO") / get(t, tab, "4KB", "2B readDMA")
	if speedup < 2.0 || speedup > 3.2 {
		t.Errorf("readDMA speedup at 4KB = %.2f, want ~2.6", speedup)
	}
	if get(t, tab, "512B", "2B readDMA") <= get(t, tab, "512B", "2B MMIO") {
		t.Error("plain MMIO should beat readDMA at 512B")
	}
}

func TestFig7bShape(t *testing.T) {
	tab := Fig7b(runner(Quick))
	if v := get(t, tab, "8B", "2B MMIO"); v < 0.6 || v > 0.7 {
		t.Errorf("8B MMIO write = %.2f us, want 0.63", v)
	}
	// Sub-1us persistent writes up to 1KB (headline claim).
	if v := get(t, tab, "1KB", "2B MMIO"); v >= 1.0 {
		t.Errorf("1KB MMIO write = %.2f us, want < 1", v)
	}
	// 16.6x faster than block I/O at 8B.
	ratio := get(t, tab, "8B", "ULL-SSD") / get(t, tab, "8B", "2B MMIO")
	if ratio < 14 || ratio > 19 {
		t.Errorf("MMIO vs ULL at 8B = %.1fx, want ~16", ratio)
	}
	// Persistent MMIO under ULL's 10us even at 4KB.
	if get(t, tab, "4KB", "2B persistent MMIO") >= get(t, tab, "4KB", "ULL-SSD") {
		t.Error("persistent MMIO should stay below ULL block write")
	}
	// Sync overhead band: +15% small, +47% at 4KB.
	r8 := get(t, tab, "8B", "2B persistent MMIO") / get(t, tab, "8B", "2B MMIO")
	r4k := get(t, tab, "4KB", "2B persistent MMIO") / get(t, tab, "4KB", "2B MMIO")
	if r8 < 1.08 || r8 > 1.25 {
		t.Errorf("sync overhead at 8B = %.2f, want ~1.15", r8)
	}
	if r4k < 1.35 || r4k > 1.6 {
		t.Errorf("sync overhead at 4KB = %.2f, want ~1.47", r4k)
	}
}

func TestFig8Shape(t *testing.T) {
	ra := Fig8a(runner(tiny))
	wb := Fig8b(runner(tiny))
	// ULL saturates PCIe at large requests.
	if v := get(t, ra, "16MB", "ULL-SSD"); v < 2800 || v > 3300 {
		t.Errorf("ULL read bw = %.0f MB/s, want ~3200", v)
	}
	// 2B internal sits ~1GB/s below ULL at >= 4MB.
	gap := get(t, ra, "4MB", "ULL-SSD") - get(t, ra, "4MB", "2B internal")
	if gap < 600 || gap > 1400 {
		t.Errorf("ULL - 2B internal read gap = %.0f MB/s, want ~1000", gap)
	}
	// 2B internal write beats DC by ~700MB/s at >= 4MB.
	diff := get(t, wb, "4MB", "2B internal") - get(t, wb, "4MB", "DC-SSD")
	if diff < 400 || diff > 1000 {
		t.Errorf("2B - DC write gap = %.0f MB/s, want ~700", diff)
	}
	// Bandwidth grows with request size for every series.
	for _, tab := range []*Table{ra, wb} {
		for si, series := range tab.Series {
			prev := 0.0
			for _, r := range tab.Rows {
				if r.Vals[si] < prev*0.9 {
					t.Errorf("%s/%s not monotone at %s", tab.ID, series, r.X)
				}
				prev = r.Vals[si]
			}
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	check := func(tab *Table, x string) {
		t.Helper()
		dc := get(t, tab, x, "DC-SSD")
		ull := get(t, tab, x, "ULL-SSD")
		ba := get(t, tab, x, "2B-SSD")
		async := get(t, tab, x, "ASYNC")
		gainDC := ba / dc
		gainULL := ba / ull
		if gainDC < 1.2 || gainDC > 3.2 {
			t.Errorf("%s/%s: 2B over DC = %.2fx, want 1.2-2.8", tab.ID, x, gainDC)
		}
		if gainULL < 1.1 || gainULL > 2.6 {
			t.Errorf("%s/%s: 2B over ULL = %.2fx, want 1.15-2.3", tab.ID, x, gainULL)
		}
		if frac := ba / async; frac < 0.70 || frac > 1.001 {
			t.Errorf("%s/%s: 2B vs ASYNC = %.2f, want 0.75-0.99", tab.ID, x, frac)
		}
		if ull <= dc {
			t.Errorf("%s/%s: ULL (%.0f) should beat DC (%.0f)", tab.ID, x, ull, dc)
		}
	}
	pg := Fig9PG(runner(Quick))
	check(pg, "linkbench")
	lsmTab := Fig9LSM(runner(Quick))
	for _, x := range []string{"64B", "256B", "1024B"} {
		check(lsmTab, x)
	}
	// Payload dependence: the 2B gain shrinks as payload grows.
	g64 := get(t, lsmTab, "64B", "2B-SSD") / get(t, lsmTab, "64B", "DC-SSD")
	g1k := get(t, lsmTab, "1024B", "2B-SSD") / get(t, lsmTab, "1024B", "DC-SSD")
	if g64 <= g1k {
		t.Errorf("lsm gain should grow as payload shrinks: 64B=%.2f 1KB=%.2f", g64, g1k)
	}
	aof := Fig9AOF(runner(Quick))
	for _, x := range []string{"64B", "256B", "1024B"} {
		check(aof, x)
	}
}

func TestFig10Shape(t *testing.T) {
	tab := Fig10(runner(Quick))
	for _, r := range tab.Rows {
		if r.Vals[0] < 0.93 || r.Vals[0] > 1.08 {
			t.Errorf("fig10 %s = %.3f, want ~1.0 (all configs comparable)", r.X, r.Vals[0])
		}
	}
}

func TestCommitOverheadClaim(t *testing.T) {
	tab := CommitOverhead(runner(tiny))
	ratio := get(t, tab, "DC-SSD", "vs 2B-SSD (x)")
	if ratio < 10 || ratio > 40 {
		t.Errorf("DC commit overhead = %.1fx of BA, want O(26x)", ratio)
	}
	if ba := get(t, tab, "2B-SSD", "persist cost"); ba > 2.0 {
		t.Errorf("BA commit = %.2f us, want ~1", ba)
	}
}

func TestWAFReductionClaim(t *testing.T) {
	tab := WAFReduction(runner(tiny))
	block := get(t, tab, "ULL-SSD", "NAND page programs")
	ba := get(t, tab, "2B-SSD", "NAND page programs")
	if ba >= block/3 {
		t.Errorf("BA-WAL NAND programs = %.0f vs block %.0f; want large reduction", ba, block)
	}
}

func TestMixedWorkloadNoDegradation(t *testing.T) {
	tab := MixedWorkload(runner(Quick))
	alone := tab.Rows[0].Vals[0]
	mixed := tab.Rows[1].Vals[0]
	if mixed > alone*1.05 {
		t.Errorf("block read degraded: %.2f -> %.2f us", alone, mixed)
	}
}

// The dump and the power-on scale with the mapping table; the
// whole-buffer row is the capacitor-sizing case and reads as it did
// when every dump was a full one.
func TestRecoveryWithinBudget(t *testing.T) {
	tab := Recovery(runner(tiny))
	budget := core.DefaultConfig().CapacitorEnergyJ() * 1e3
	for _, want := range []struct {
		row    string
		dumpUs float64
		erased float64
		perCyc float64
	}{
		{"none", 53.4, 0, 32},
		{"2MB window", 480.7, 0, 4},
		{"half", 908.0, 0, 2},
		{"whole", 1762.6, 1, 1},
	} {
		dump := get(t, tab, want.row, "dump_us")
		if dump < want.dumpUs-0.1 || dump > want.dumpUs+0.1 {
			t.Errorf("%s: dump %.2f µs, want ≈ %.0f", want.row, dump, want.dumpUs)
		}
		if e := get(t, tab, want.row, "energy_mJ"); e >= budget {
			t.Errorf("%s: dump energy %.1f mJ over the %.1f mJ budget", want.row, e, budget)
		}
		if got := get(t, tab, want.row, "erased"); got != want.erased {
			t.Errorf("%s: erased = %v, want %v", want.row, got, want.erased)
		}
		if got := get(t, tab, want.row, "cycles/erase"); got != want.perCyc {
			t.Errorf("%s: %v cycles per erase, want %v", want.row, got, want.perCyc)
		}
		// A power-on that erases pays the 3 ms erase; one that does not
		// pays only the restore.
		if on := get(t, tab, want.row, "power_on_us"); (on > 3000) != (want.erased == 1) {
			t.Errorf("%s: power-on %.2f µs with erased = %v", want.row, on, want.erased)
		}
	}
}

func TestTailLatencyShape(t *testing.T) {
	tab := TailLatency(runner(tiny))
	baP99 := get(t, tab, "2B-SSD", "p99")
	dcP99 := get(t, tab, "DC-SSD", "p99")
	if baP99*5 > dcP99 {
		t.Errorf("BA p99 = %.2f us vs DC p99 = %.2f us; want a much shorter tail", baP99, dcP99)
	}
	if mean := get(t, tab, "2B-SSD", "mean"); mean > 3 {
		t.Errorf("BA mean commit = %.2f us, want ~1", mean)
	}
}

func TestSmallReadShape(t *testing.T) {
	tab := SmallRead(runner(tiny))
	// Small pinned reads beat page-granular block reads; at some size
	// the block path wins again (Fig 7a crossover).
	if blk, mm := get(t, tab, "64B", "block read"), get(t, tab, "64B", "MMIO read (pinned)"); mm >= blk {
		t.Errorf("64B: MMIO %.2f us should beat block %.2f us", mm, blk)
	}
	if blk, mm := get(t, tab, "1KB", "block read"), get(t, tab, "1KB", "MMIO read (pinned)"); mm <= blk {
		t.Errorf("1KB: block %.2f us should beat MMIO %.2f us", blk, mm)
	}
}

func TestPMRComparisonShape(t *testing.T) {
	tab := PMRComparison(runner(tiny))
	baHost := get(t, tab, "2B-SSD (BA-WAL)", "host bytes moved per log byte")
	pmrHost := get(t, tab, "PMR device", "host bytes moved per log byte")
	// The 2B-SSD moves ~0 host bytes per log byte; PMR pays ~2x (DMA
	// read + block write of everything).
	if baHost > 0.2 {
		t.Errorf("2B host bytes/log byte = %.2f, want ~0", baHost)
	}
	if pmrHost < 1.2 {
		t.Errorf("PMR host bytes/log byte = %.2f, want ~2", pmrHost)
	}
	baTput := get(t, tab, "2B-SSD (BA-WAL)", "commits/s")
	pmrTput := get(t, tab, "PMR device", "commits/s")
	if pmrTput > baTput {
		t.Errorf("PMR (%.0f) should not beat 2B-SSD (%.0f)", pmrTput, baTput)
	}
}

func TestJournalingShape(t *testing.T) {
	tab := Journaling(runner(tiny))
	dc := get(t, tab, "DC-SSD", "txns/s")
	ba := get(t, tab, "2B-SSD", "txns/s")
	if ba <= dc {
		t.Errorf("BA journaling (%.0f) should beat DC (%.0f)", ba, dc)
	}
}

func TestAblations(t *testing.T) {
	wc := AblationWriteCombining(runner(tiny))
	if on, off := get(t, wc, "4KB", "WC on (64B bursts)"), get(t, wc, "4KB", "WC off (8B stores)"); on >= off {
		t.Errorf("WC ablation: on=%.2f off=%.2f; combining should win", on, off)
	}
	db := AblationDoubleBuffering(runner(tiny))
	if dbl, single := db.Rows[0].Vals[0], db.Rows[1].Vals[0]; dbl >= single {
		t.Errorf("double buffering (%.0f) should beat single (%.0f)", dbl, single)
	}
	gc := AblationGroupCommit(runner(tiny))
	f1 := get(t, gc, "1", "fsyncs per commit")
	f16 := get(t, gc, "16", "fsyncs per commit")
	if f16 >= f1 {
		t.Errorf("group commit: fsyncs/commit should fall with clients (1:%.2f 16:%.2f)", f1, f16)
	}
}
