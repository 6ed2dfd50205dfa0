// The model-based fuzzing campaign behind `bench2b fuzz`: N seeds of
// randomized dual-path workload replayed against the internal/oracle
// reference model, each on its own fresh sim.Env. Seeds fan out
// through the Runner (so -j applies) and land in seed
// order, so the summary is byte-identical at any parallelism. Any
// divergence is shrunk to a minimal op trace before reporting.
package bench

import (
	"fmt"
	"io"

	"twobssd/internal/oracle"
)

// FuzzReport aggregates one fuzz campaign.
type FuzzReport struct {
	Seeds        int
	GCActive     bool // the profile: a drive in steady-state GC
	Ops          int
	Divergences  []oracle.ShrinkReport
	ScrubRepairs uint64
	EccRetries   uint64
	GCRelocated  uint64 // pages garbage collection moved under the traces
}

// RunFuzz replays seeds 0..n-1 through the oracle twice — on an empty
// drive, then on one in steady-state garbage collection — shrinks any
// divergence, writes one summary table per profile to w, and returns an
// error when the stack and the reference model disagreed anywhere.
func RunFuzz(r *Runner, w io.Writer, n int) error {
	var first error
	for _, cfg := range []oracle.Config{{}, {GCActive: true}} {
		if err := runFuzz(r, w, n, cfg); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runFuzz(r *Runner, w io.Writer, n int, cfg oracle.Config) error {
	results := points(r, n, func(i int) oracle.Result {
		return oracle.Run(uint64(i), cfg)
	})
	rep := &FuzzReport{Seeds: n, GCActive: cfg.GCActive}
	for _, res := range results {
		rep.Ops += res.Ops
		rep.ScrubRepairs += res.ScrubRepairs
		rep.EccRetries += res.EccRetries
		rep.GCRelocated += res.GCRelocations
		if res.Divergence != nil {
			sr := points(r, 1, func(int) oracle.ShrinkReport {
				return oracle.Shrink(res.Seed, cfg, oracle.Generate(res.Seed, cfg))
			})[0]
			if sr.Divergence == nil {
				// The full trace diverged but the re-run did not:
				// itself a determinism bug worth reporting loudly.
				sr.Divergence = res.Divergence
				sr.Ops = nil
			}
			rep.Divergences = append(rep.Divergences, sr)
		}
	}
	if err := rep.WriteText(w); err != nil {
		return err
	}
	if len(rep.Divergences) > 0 {
		return fmt.Errorf("bench: %d of %d fuzz seeds diverged from the reference model", len(rep.Divergences), n)
	}
	return nil
}

// WriteText renders the deterministic campaign summary.
func (r *FuzzReport) WriteText(w io.Writer) error {
	profile := ""
	if r.GCActive {
		profile = "drive in steady-state GC, "
	}
	if _, err := fmt.Fprintf(w, "== fuzz: dual-path oracle, %s%d seeds ==\n", profile, r.Seeds); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %d\n%-24s %d\n%-24s %d\n%-24s %d\n%-24s %d\n",
		"seeds run", r.Seeds,
		"ops executed", r.Ops,
		"divergences", len(r.Divergences),
		"scrub repairs", r.ScrubRepairs,
		"ecc retries", r.EccRetries); err != nil {
		return err
	}
	if r.GCActive {
		if _, err := fmt.Fprintf(w, "%-24s %d\n", "gc relocations", r.GCRelocated); err != nil {
			return err
		}
	}
	for _, sr := range r.Divergences {
		if _, err := fmt.Fprintf(w, "DIVERGENCE %v\n", sr.Divergence); err != nil {
			return err
		}
		for i, op := range sr.Ops {
			if _, err := fmt.Fprintf(w, "  op %2d: %v\n", i, op); err != nil {
				return err
			}
		}
		if sr.Flight != nil {
			if err := sr.Flight.WriteText(w); err != nil {
				return err
			}
		}
	}
	return nil
}
