package oracle

import (
	"fmt"

	"twobssd/internal/obs"
)

// Shrink minimizes a diverging trace. The strategy mirrors the fault
// campaign's threshold bisection, then goes further:
//
//  1. truncate — ops after the diverging index cannot matter;
//  2. prefix bisection — find the shortest prefix that still diverges
//     (O(log n) replays for divergences triggered by a single op);
//  3. ddmin-style chunk removal — repeatedly try deleting chunks from
//     the middle of the trace, halving the chunk size whenever a full
//     sweep removes nothing, until chunks of one op survive.
//
// Every candidate replays untraced on a fresh environment with the
// same seed, so the fault schedule is identical and results are
// deterministic. Shrink stops early when the replay budget is exhausted
// and keeps the best (shortest) diverging trace found so far; one
// traced replay of that trace then takes its flight dump.
type ShrinkReport struct {
	Ops        []Op // minimal diverging trace
	Divergence *Divergence
	Replays    int // replays the search spent
	// Flight is the flight dump of the traced replay of Ops.
	Flight *obs.FlightDump
}

// MaxShrinkReplays bounds the shrink search per divergence.
const MaxShrinkReplays = 200

// Shrink reduces ops (a trace known to diverge for seed/cfg) to a
// minimal diverging subsequence.
func Shrink(seed uint64, cfg Config, ops []Op) ShrinkReport {
	rep := ShrinkReport{Ops: ops}
	diverges := func(cand []Op) *Divergence {
		if rep.Replays >= MaxShrinkReplays {
			return nil
		}
		rep.Replays++
		return Replay(seed, cfg, cand).Divergence
	}

	// Confirm, and truncate to the diverging op: nothing after it ran.
	d := diverges(ops)
	if d == nil {
		rep.Divergence = nil
		return rep
	}
	rep.Divergence = d
	if d.OpIndex >= 0 && d.OpIndex+1 < len(ops) {
		ops = ops[:d.OpIndex+1]
		rep.Ops = ops
	}

	// Prefix bisection (the fault campaign's threshold search): the
	// shortest prefix that still diverges. Note a shorter prefix can
	// fail to diverge even though the full one does (the divergence may
	// need earlier state), so keep the best confirmed length.
	lo, hi := 1, len(ops)
	for lo < hi {
		mid := (lo + hi) / 2
		if d := diverges(ops[:mid]); d != nil {
			rep.Divergence = d
			hi = mid
			cut := mid
			if d.OpIndex >= 0 && d.OpIndex+1 < cut {
				cut = d.OpIndex + 1 // truncate inside the prefix too
			}
			ops = ops[:cut]
			if hi > cut {
				hi = cut
			}
			rep.Ops = ops
		} else {
			lo = mid + 1
		}
	}

	// ddmin-style chunk removal over what remains: delete interior ops
	// the divergence does not actually depend on.
	chunk := len(ops) / 2
	for chunk >= 1 && rep.Replays < MaxShrinkReplays {
		removed := false
		for start := 0; start+chunk <= len(ops); {
			cand := make([]Op, 0, len(ops)-chunk)
			cand = append(cand, ops[:start]...)
			cand = append(cand, ops[start+chunk:]...)
			if len(cand) == 0 {
				start += chunk
				continue
			}
			if d := diverges(cand); d != nil {
				ops = cand
				rep.Ops = ops
				rep.Divergence = d
				removed = true
				// do not advance start: the next chunk slid into place
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(ops) {
			chunk = len(ops)
		}
	}

	// The dump: one traced replay of the minimal trace. It must diverge
	// exactly as the search saw; anything else is a determinism failure,
	// reported in place of the divergence and never dumped.
	traced := replay(seed, cfg, rep.Ops, true)
	if traced.Divergence.String() != rep.Divergence.String() {
		rep.Divergence = &Divergence{Seed: seed, OpIndex: -1, Op: "replay",
			Detail: fmt.Sprintf("nondeterministic: the traced replay of the minimal trace gave %v, the search %v",
				traced.Divergence, rep.Divergence)}
		return rep
	}
	rep.Flight = traced.Flight
	return rep
}
