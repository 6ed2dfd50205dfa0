// `bench2b wal-life`: the segmented-WAL lifecycle evaluation. Part
// one is a feature microbenchmark — every lifecycle operation (single
// and group commit, rotation, checkpoint+truncation, tail streaming,
// chain recovery) timed on both the paper's BA byte path and the
// block+flush baseline, one deterministic env per mode. Part two is
// the fault sweep: the campaign table's wal-life rows (the walseg
// driver on both modes), with rotation/checkpoint/truncation-instant triggers
// and torn-tail repair, gating on 0 lost / 0 phantom / 0 repair
// failures. Reports are byte-identical at any -j.
package bench

import (
	"fmt"
	"io"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// walLifeConfig is the lifecycle geometry on the scaled-down crash
// stack, shared with the walseg crash driver: 16 KB segment files on a
// 4-slot ring, two inner segments per file.
func walLifeConfig(s *stack, mode wal.CommitMode) wal.Config {
	cfg := crashRing(4, 4, 2, 0, 1)(s)
	cfg.Mode, cfg.Name = mode, "seglog"
	return cfg
}

// walLifeRow is one mode's feature measurements, all in µs.
type walLifeRow struct {
	commit1      float64 // single committer commit latency
	commit8      float64 // commit latency with 8 concurrent committers
	perFlush     float64 // committers coalesced per group flush
	rotate       float64 // seal + recycle per rotation
	checkpoint   float64 // meta write + truncation per checkpoint
	tailLag      float64 // append→tail-reader delivery lag
	recover      float64 // full chain scan + replay
	recoverReads float64 // device read commands that recovery issued
	truncations  float64
	tornRepaired float64
}

func usOf(d sim.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / 1e3
}

// walLifeFeatures drives one mode through every lifecycle feature on a
// fresh env and returns the per-feature timings.
func walLifeFeatures(mode wal.CommitMode) (walLifeRow, error) {
	env := sim.NewEnv()
	var row walLifeRow
	var runErr error
	env.Go("wal-life", func(p *sim.Proc) {
		fail := func(err error) { runErr = err }
		s := newCrashStack(env)
		sl, err := wal.Open(env, walLifeConfig(s, mode))
		if err != nil {
			fail(err)
			return
		}
		small := func(i int) string { return crashValue(crashKey("wl", i)) }
		// The log publishes its lifecycle as this (fresh) env's
		// "wal.seg_*" series.
		reg := obs.Of(env).Registry()
		count := func(name string) uint64 { return reg.Counter("wal.seg_" + name).Value() }
		total := func(name string) sim.Duration { return reg.Histo("wal.seg_" + name + "_ns").Sum() }

		// Single committer: small records, append+commit each.
		for i := 0; i < 24; i++ {
			lsn, err := sl.Append(p, []byte(small(i)))
			if err == nil {
				err = sl.Commit(p, lsn)
			}
			if err != nil {
				fail(err)
				return
			}
		}
		commits1, time1, flushes1 := count("commits"), total("commit"), count("group_flushes")
		row.commit1 = usOf(time1, commits1)

		// Group commit: 8 concurrent committers, 8 records each.
		commit := sim.NewFan(env, "wal-life.commit", func(p *sim.Proc, _ *struct{}, c int) error {
			for i := 0; i < 8; i++ {
				lsn, err := sl.Append(p, []byte(small(100+c*8+i)))
				if err == nil {
					err = sl.Commit(p, lsn)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err := commit.Run(p, 8, struct{}{}); err != nil {
			fail(err)
			return
		}
		commits8 := count("commits") - commits1
		row.commit8 = usOf(total("commit")-time1, commits8)
		row.perFlush = float64(commits8) / float64(count("group_flushes")-flushes1)

		// Lifecycle churn with a tail reader attached: big records force
		// rotations, periodic checkpoints truncate behind them.
		var lagSum sim.Duration
		var lagN int
		var produced bool
		tailDone := env.NewSignal("wal-life.taildone")
		r := sl.Tail(wal.LSN(sl.DurableOff()))
		env.Go("wal-life.tail", func(p *sim.Proc) {
			defer tailDone.Fire()
			for {
				rec, ok, err := r.TryNext()
				if err != nil {
					return
				}
				if ok {
					lagSum += sim.Duration(env.Now() - rec.At)
					lagN++
					continue
				}
				if produced {
					return // caught up with the final frontier
				}
				sl.WaitTail(p)
			}
		})
		for i := 0; i < 40; i++ {
			payload := walSegPayload(crashKey("wl-big", i))
			lsn, err := sl.Append(p, []byte(payload))
			if err == nil {
				err = sl.Commit(p, lsn)
			}
			if err != nil {
				fail(err)
				return
			}
			if i%12 == 11 {
				if err := sl.Checkpoint(p, lsn); err != nil {
					fail(err)
					return
				}
			}
		}
		if err := sl.Drain(p); err != nil {
			fail(err)
			return
		}
		produced = true
		sl.WakeTail()
		tailDone.Wait(p)
		r.Close()
		row.rotate = usOf(total("rotate"), count("rotations"))
		row.checkpoint = usOf(total("checkpoint"), count("checkpoints"))
		row.truncations = float64(count("truncations"))
		if lagN > 0 {
			row.tailLag = float64(lagSum) / float64(lagN) / 1e3
		}

		// Chain recovery: flush the live log down, then scan + replay it
		// from NAND through a second handle (stale recycled-slot bytes
		// past the tail are repaired like after a real crash).
		if err := sl.FlushToNAND(p); err != nil {
			fail(err)
			return
		}
		rl, err := wal.Open(env, walLifeConfig(s, mode))
		if err != nil {
			fail(err)
			return
		}
		readCmds := reg.Counter(s.ssd.Device().Profile().Name + ".read_cmds")
		reads0 := readCmds.Value()
		if err := rl.Recover(p, nil); err != nil {
			fail(err)
			return
		}
		row.recover = usOf(total("recover"), 1)
		row.recoverReads = float64(readCmds.Value() - reads0)
		row.tornRepaired = float64(count("torn_repairs"))
	})
	env.Run()
	env.Shutdown()
	return row, runErr
}

// walLifeTable renders both modes' feature rows as the BA-vs-baseline
// comparison table.
func walLifeTable(r *Runner) (*Table, error) {
	rows, err := pointsErr(r, 2, func(i int) (walLifeRow, error) {
		row, err := walLifeFeatures([]wal.CommitMode{wal.BA, wal.Sync}[i])
		if err != nil {
			err = fmt.Errorf("wal-life %s: %w", []string{"BA", "sync"}[i], err)
		}
		return row, err
	})
	if err != nil {
		return nil, err
	}
	ba, sync := rows[0], rows[1]
	t := &Table{
		ID:     "wal-life",
		Title:  "segmented WAL lifecycle: BA byte path vs block+flush",
		XLabel: "feature",
		Series: []string{"ba", "block+flush"},
	}
	t.AddRow("commit_1_us", ba.commit1, sync.commit1)
	t.AddRow("commit_8_us", ba.commit8, sync.commit8)
	t.AddRow("commits/flush", ba.perFlush, sync.perFlush)
	t.AddRow("rotate_us", ba.rotate, sync.rotate)
	t.AddRow("checkpoint_us", ba.checkpoint, sync.checkpoint)
	t.AddRow("truncations", ba.truncations, sync.truncations)
	t.AddRow("tail_lag_us", ba.tailLag, sync.tailLag)
	t.AddRow("recover_us", ba.recover, sync.recover)
	t.AddRow("recover_read_cmds", ba.recoverReads, sync.recoverReads)
	t.AddRow("torn_repaired", ba.tornRepaired, sync.tornRepaired)
	t.Notes = append(t.Notes,
		"group commit: 8 concurrent committers coalesced per flush burst",
		"recover: full segment-chain scan + replay from NAND media")
	return t, nil
}

// runWalLife runs lifecycle experiment exp: the feature table, then
// its campaign rows with pts crash points each. Returns an error when
// any point loses a committed record, recovers a phantom, or fails a
// torn-tail repair.
func runWalLife(r *Runner, w io.Writer, exp string, pts int) error {
	t, err := walLifeTable(r)
	if err != nil {
		return err
	}
	t.Print(w)
	return runCampaigns(r, w, exp, sweepRows(exp), pts, -1)
}
