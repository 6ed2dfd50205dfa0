package bench

import "io"

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
// one table cmd/bench2b, the determinism tests and the docs lint all
// read. The reliability artifacts after "ablations" run only when
// named: a full sweep crash-cycles the simulated device hundreds of
// times, which is a gate, not a paper figure. Each has a CI-sized
// "-smoke" variant.
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
		{"crash", false, func(r *Runner, w io.Writer) error {
			return runCampaigns(r, w, campaignNames("crash", false), 128)
		}},
		{"crash-smoke", false, func(r *Runner, w io.Writer) error {
			return runCampaigns(r, w, campaignNames("crash", true), 32)
		}},
		// Randomized dual-path workloads against internal/oracle, on an
		// empty drive and on one in steady-state GC: 256 seeds each; the
		// smoke is 32.
		{"fuzz", false, func(r *Runner, w io.Writer) error { return RunFuzz(r, w, 256) }},
		{"fuzz-smoke", false, func(r *Runner, w io.Writer) error { return RunFuzz(r, w, 32) }},
		// The multi-device scenario family; the smoke is 2 devices with
		// a primary crash and follower takeover.
		{"fleet", false, func(r *Runner, w io.Writer) error { return RunFleet(r, w, false) }},
		{"fleet-smoke", false, func(r *Runner, w io.Writer) error { return RunFleet(r, w, true) }},
		// WAL lifecycle feature table + 128 crash points per commit
		// mode; the smoke is the same at 32 points.
		{"wal-life", false, func(r *Runner, w io.Writer) error { return runWalLife(r, w, 128) }},
		{"wal-life-smoke", false, func(r *Runner, w io.Writer) error { return runWalLife(r, w, 32) }},
	}
}
