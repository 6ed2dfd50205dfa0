package bench

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Experiment is one runnable artifact. Run writes its tables or
// campaign reports to w and returns an error when the artifact is a
// gate and the gate failed (durability violation, model divergence,
// determinism divergence); the output written so far stays valid.
type Experiment struct {
	ID    string
	InAll bool // part of "bench2b all": the paper tables and ablations
	Run   func(r *Runner, w io.Writer) error
}

// tables adapts table generators to Experiment.Run.
func tables(gens ...func(*Runner) *Table) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		for _, gen := range gens {
			gen(r).Print(w)
		}
		return nil
	}
}

// Experiments returns every artifact, in canonical print order: the
// one table Select resolves ids against, and the docs lint reads. The
// reliability artifacts after "ablations" run only when named: a full
// sweep crash-cycles the simulated device hundreds of times, which is a
// gate, not a paper figure. Each has a CI-sized "-smoke" variant.
func Experiments() []Experiment {
	return []Experiment{
		{"tab1", true, tables(func(*Runner) *Table { return Spec() })},
		{"fig7a", true, tables(Fig7a)},
		{"fig7b", true, tables(Fig7b)},
		{"fig8a", true, tables(Fig8a)},
		{"fig8b", true, tables(Fig8b)},
		{"fig9", true, tables(Fig9PG, Fig9LSM, Fig9AOF)},
		{"fig10", true, tables(Fig10)},
		{"commit", true, tables(CommitOverhead)},
		{"waf", true, tables(WAFReduction)},
		{"mixed", true, tables(MixedWorkload)},
		{"recovery", true, tables(Recovery)},
		{"tail", true, tables(TailLatency)},
		{"smallread", true, tables(SmallRead)},
		{"pmr", true, tables(PMRComparison)},
		{"journal", true, tables(Journaling)},
		{"qd", true, tables(QueueDepth)},
		{"probe", true, tables(Probe)},
		{"ablations", true, tables(AblationWriteCombining, AblationDoubleBuffering, AblationGroupCommit)},

		// 128 power-loss points per row of the campaign table's crash
		// sweep — six storage engines, the checkpoint path of three of
		// them and the raw block path in steady-state GC (1 280 in all);
		// the smoke is 32 points over the rows marked smoke.
		{"crash", false, campaignExp("crash")},
		{"crash-smoke", false, campaignExp("crash-smoke")},
		// Randomized dual-path workloads against internal/oracle, on an
		// empty drive and on one in steady-state GC: 256 seeds each; the
		// smoke is 32.
		{"fuzz", false, campaignExp("fuzz")},
		{"fuzz-smoke", false, campaignExp("fuzz-smoke")},
		// The multi-device scenario family; the smoke is 2 devices with
		// a primary crash and follower takeover.
		{"fleet", false, func(r *Runner, w io.Writer) error { return runFleet(r, w, "fleet", "") }},
		{"fleet-smoke", false, func(r *Runner, w io.Writer) error { return runFleet(r, w, "fleet-smoke", "") }},
		// WAL lifecycle feature table + 128 crash points per commit
		// mode; the smoke is the same at 32 points.
		{"wal-life", false, func(r *Runner, w io.Writer) error { return runWalLife(r, w, "wal-life", sweepPoints["wal-life"]) }},
		{"wal-life-smoke", false, func(r *Runner, w io.Writer) error {
			return runWalLife(r, w, "wal-life-smoke", sweepPoints["wal-life-smoke"])
		}},
	}
}

// sweepPoints is the points per row of each campaign experiment: crash
// points, or fuzz seeds. An experiment sweeps the campaign table's rows
// of its kind, its id less "-smoke"; a smoke only the rows marked smoke.
var sweepPoints = map[string]int{
	"crash": 128, "crash-smoke": 32, "fuzz": 256, "fuzz-smoke": 32, "wal-life": 128, "wal-life-smoke": 32,
}

// sweepRows lists, in table order, the campaign rows experiment exp
// sweeps.
func sweepRows(exp string) []string {
	kind, smoke := strings.CutSuffix(exp, "-smoke")
	return campaignNames(kind, smoke)
}

// campaignExp runs campaign experiment exp: every point of each of its
// rows.
func campaignExp(exp string) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		return runCampaigns(r, w, exp, sweepRows(exp), sweepPoints[exp], -1)
	}
}

// Unit reports whether exps is one unit: one paper artifact, or one
// address — a campaign point or a fleet scenario. A unit is what a
// trace records.
func Unit(exps []Experiment) bool {
	return len(exps) == 1 && (exps[0].InAll || strings.Contains(exps[0].ID, "/"))
}

// address resolves id, an address below experiment exp of table:
// <exp>/<row>/<point> is one point of a campaign experiment's sweep,
// <exp>/<scenario> one scenario of a fleet experiment. A paper
// artifact has none: its tables are one unit.
func address(table []Experiment, id string) (Experiment, error) {
	exp, rest, _ := strings.Cut(id, "/")
	if !slices.ContainsFunc(table, func(ex Experiment) bool { return ex.ID == exp }) {
		return Experiment{}, fmt.Errorf("unknown experiment %q", id)
	}
	if pts, ok := sweepPoints[exp]; ok {
		row, point, _ := strings.Cut(rest, "/")
		if !slices.Contains(sweepRows(exp), row) {
			return Experiment{}, fmt.Errorf("%q: %s sweeps no row %q (rows: %s)", id, exp, row, strings.Join(sweepRows(exp), " "))
		}
		i, err := strconv.Atoi(point)
		if err != nil || i < 0 || i >= pts {
			return Experiment{}, fmt.Errorf("%q: name a point of %s/%s, 0 to %d", id, exp, row, pts-1)
		}
		return Experiment{ID: id, Run: func(r *Runner, w io.Writer) error {
			return runCampaigns(r, w, exp, []string{row}, pts, i)
		}}, nil
	}
	if scens := fleetOf(exp, Quick); scens != nil {
		if !slices.ContainsFunc(scens, func(sc fleetScenario) bool { return sc.id == rest }) {
			return Experiment{}, fmt.Errorf("%q: %s has no scenario %q", id, exp, rest)
		}
		return Experiment{ID: id, Run: func(r *Runner, w io.Writer) error { return runFleet(r, w, exp, rest) }}, nil
	}
	return Experiment{}, fmt.Errorf("%q: %s is one unit, with no address below it", id, exp)
}
