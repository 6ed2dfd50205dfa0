// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated stack, plus the ablations
// called out in DESIGN.md. Each experiment returns a Table whose rows
// mirror the series the paper plots; cmd/bench2b prints them.
package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/sim"
)

// Table is one reproduced figure or table.
type Table struct {
	ID     string // e.g. "fig7a"
	Title  string
	XLabel string
	Unit   string
	Series []string
	Rows   []Row
	Notes  []string
}

// Row is one x-axis point.
type Row struct {
	X    string
	Vals []float64
}

// AddRow appends a data point.
func (t *Table) AddRow(x string, vals ...float64) {
	t.Rows = append(t.Rows, Row{X: x, Vals: vals})
}

// Print renders the table in fixed-width columns: the x column 14 wide
// and each series 16, or one wider than its header, so no header runs
// into the one before it.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "   (values in %s)\n", t.Unit)
	}
	xw := max(14, utf8.RuneCountInString(t.XLabel)+1)
	ws := make([]int, len(t.Series))
	head := fmt.Sprintf("%-*s", xw, t.XLabel)
	for i, s := range t.Series {
		ws[i] = max(16, utf8.RuneCountInString(s)+1)
		head += fmt.Sprintf("%*s", ws[i], s)
	}
	fmt.Fprintln(w, head)
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-*s", xw, r.X)
		for i, v := range r.Vals {
			line += fmt.Sprintf("%*.2f", ws[i], v)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale sizes an experiment run.
type Scale struct {
	LatReps int   // repetitions per latency point
	AppOps  int64 // operations per application run
	Clients int   // concurrent client processes
	Records int64 // YCSB keyspace
	Nodes   int64 // LinkBench graph size
}

// Quick is the CI-sized scale; Full approaches the paper's run lengths.
var (
	Quick = Scale{LatReps: 10, AppOps: 3000, Clients: 8, Records: 1000, Nodes: 400}
	Full  = Scale{LatReps: 50, AppOps: 30000, Clients: 16, Records: 10000, Nodes: 4000}
)

// Device factories shared by the experiments.

// DC builds a DC-SSD (PM963-class) device.
func DC(e *sim.Env) *device.Device { return device.New(e, device.DCSSD()) }

// ULL builds a ULL-SSD (Z-SSD-class) device.
func ULL(e *sim.Env) *device.Device { return device.New(e, device.ULLSSD()) }

// SSD2B builds a full-spec 2B-SSD.
func SSD2B(e *sim.Env) *core.TwoBSSD { return core.New(e, core.DefaultConfig()) }

// Spec renders Table I.
func Spec() *Table {
	t := &Table{ID: "tab1", Title: "2B-SSD specification (Table I)", XLabel: "Item", Series: []string{"-"}}
	for _, row := range core.DefaultSpec().Rows() {
		t.Rows = append(t.Rows, Row{X: row[0] + ": " + row[1]})
	}
	return t
}
