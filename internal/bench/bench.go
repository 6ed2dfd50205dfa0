// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated stack, plus the ablations
// called out in DESIGN.md. Each experiment returns a Table whose rows
// mirror the series the paper plots; cmd/bench2b prints them.
package bench

import (
	"fmt"
	"io"
	"strings"

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

// opWindow is what a rate divides by: the span from the first op
// issued to the last op acknowledged. An environment's clock after
// Run() is the instant it went idle, which can be long after the last
// op returned (a write buffer's drain, an erase), so no rate divides
// by it.
type opWindow struct {
	first, last sim.Time
	started     bool
}

// issue records an op issued at now.
func (w *opWindow) issue(now sim.Time) {
	if !w.started {
		w.first, w.started = now, true
	}
}

// ack records an op acknowledged at now.
func (w *opWindow) ack(now sim.Time) { w.last = max(w.last, now) }

// span is the window's length.
func (w *opWindow) span() sim.Duration { return sim.Duration(w.last - w.first) }

// rate is n per second of the window.
func (w *opWindow) rate(n float64) float64 { return n / w.span().Seconds() }

// AddRow appends a data point.
func (t *Table) AddRow(x string, vals ...float64) {
	t.Rows = append(t.Rows, Row{X: x, Vals: vals})
}

// Print renders the table in fixed-width columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "   (values in %s)\n", t.Unit)
	}
	head := fmt.Sprintf("%-14s", t.XLabel)
	for _, s := range t.Series {
		head += fmt.Sprintf("%16s", s)
	}
	fmt.Fprintln(w, head)
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-14s", r.X)
		for _, v := range r.Vals {
			line += fmt.Sprintf("%16.2f", v)
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
