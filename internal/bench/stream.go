package bench

import (
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// Stream is one commit stream, the paper's central measurement: records
// appended and committed to a log on the log device of a Device stack.
// The commit, waf, tail and pmr tables, the group-commit ablation and
// cmd/walsim run theirs through it.
type Stream struct {
	Device LogDevice
	// The log: a write-once file of Bytes, or with Ring >= 2 a ring of
	// Ring files of Bytes each. On the 2B-SSD it double buffers on
	// mapping-table entries 0 and 1 (stack.logConfig).
	Bytes int64
	Ring  int
	// Tune, when set, adjusts the log's config before it opens: a commit
	// mode other than the device's, another segment size.
	Tune func(*wal.Config)

	// Records (at least one) of Size bytes, split among Clients as
	// evenly as they allow: the first Records%Clients clients take one
	// more. With no clients the setup proc commits them itself.
	Records, Size, Clients int
	// WarmUp commits one untimed record before the stream: the first
	// append pays the one-time BA_PIN of the log segment, which is not
	// per-commit cost.
	WarmUp bool
	// CheckpointEvery checkpoints the ring every n commits (0: never),
	// truncating the segments it covers.
	CheckpointEvery int
	// Flush moves the log to NAND and drains the log device after the
	// last commit. With no clients it runs on the committing proc, at
	// the last commit's instant; with clients, on a proc of its own
	// once every client is done and the environment has gone idle.
	Flush bool
}

// StreamResult is what a stream measured: its Loop holds every timed
// append+commit. The environment is shut down; its clock, its registry
// and the log stay readable.
type StreamResult struct {
	Env   *sim.Env
	Reg   *obs.Registry
	Log   *wal.Log // nil when the log did not open
	*Loop          // the window ends at the last commit, or at the flush
	st    *stack
}

// Run runs the stream. The error is the first failure: creating or
// opening the log, or a commit, after which no client commits again.
func (s Stream) Run() (*StreamResult, error) {
	st := newStack(s.Device)
	defer st.env.Shutdown()
	res := &StreamResult{Env: st.env, Reg: obs.Of(st.env).Registry(), st: st}
	commit := func(p *sim.Proc, rec []byte) (wal.LSN, error) {
		lsn, err := res.Log.Append(p, rec)
		if err == nil {
			err = res.Log.Commit(p, lsn)
		}
		return lsn, err
	}
	flush := func(p *sim.Proc, lp *Loop) error {
		if err := res.Log.FlushToNAND(p); err != nil {
			return err
		}
		lp.win.ack(st.env.Now())
		return st.logFS.Device().Drain(p)
	}
	rec := make([]byte, s.Size) // Append copies: every commit shares it
	lsns := make([]wal.LSN, max(s.Clients, 1))
	var err error
	res.Loop, err = Closed{Env: st.env, Clients: s.Clients, Ops: s.Records,
		Setup: func(p *sim.Proc) (err error) {
			if res.Log, err = s.open(st); err != nil || !s.WarmUp {
				return err
			}
			_, err = commit(p, rec)
			return err
		},
		Op: func(p *sim.Proc, c, _ int) (err error) {
			lsns[c], err = commit(p, rec)
			return err
		},
		Acked: func(p *sim.Proc, lp *Loop, c int) error {
			n := lp.Lat.N()
			if s.CheckpointEvery > 0 && n%uint64(s.CheckpointEvery) == 0 {
				if err := res.Log.Checkpoint(p, lsns[c]); err != nil {
					return err
				}
			}
			// With no clients the flush runs on the committing proc, at
			// the last commit's instant.
			if s.Flush && s.Clients == 0 && n == uint64(s.Records) {
				return flush(p, lp)
			}
			return nil
		},
	}.Run()
	if s.Flush && s.Clients > 0 && err == nil {
		st.env.Go("flush", func(p *sim.Proc) { err = flush(p, res.Loop) })
		st.env.Run()
	}
	return res, err
}

// open creates the log on st's log device.
func (s Stream) open(st *stack) (*wal.Log, error) {
	var cfg wal.Config
	if s.Ring >= 2 {
		cfg = st.ringConfig(s.Ring, s.Bytes, 0, 1)
		cfg.Name = "log"
	} else {
		f, err := st.logFS.Create("log", s.Bytes)
		if err != nil {
			return nil, err
		}
		cfg = st.logConfig(f, 0, 1)
	}
	if s.Tune != nil {
		s.Tune(&cfg)
	}
	return wal.Open(st.env, cfg)
}

// must is Run for the tables, whose streams do not fail.
func (s Stream) must() *StreamResult {
	res, err := s.Run()
	if err != nil {
		panic(err)
	}
	return res
}
