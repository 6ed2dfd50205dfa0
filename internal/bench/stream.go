package bench

import (
	"fmt"

	"twobssd/internal/histo"
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

	// Records of Size bytes, split among Clients as evenly as they
	// allow: the first Records%Clients clients take one more. With no
	// clients the setup proc commits them itself.
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

// StreamResult is what a stream measured. The environment is shut
// down; its clock, its registry and the log stay readable.
type StreamResult struct {
	Env     *sim.Env
	Reg     *obs.Registry
	Log     *wal.Log // nil when the log did not open
	Commits *histo.H // every timed append+commit
	win     opWindow // first timed issue to last commit, or to the flush
	st      *stack
}

// Run runs the stream. The error is the first failure: creating or
// opening the log, or a commit, after which no client commits again.
func (s Stream) Run() (*StreamResult, error) {
	st := newStack(s.Device)
	defer st.env.Shutdown()
	res := &StreamResult{Env: st.env, Reg: obs.Of(st.env).Registry(), Commits: &histo.H{}, st: st}
	var runErr error
	commit := func(p *sim.Proc, rec []byte) (wal.LSN, error) {
		lsn, err := res.Log.Append(p, rec)
		if err == nil {
			err = res.Log.Commit(p, lsn)
		}
		return lsn, err
	}
	client := func(p *sim.Proc, n int) {
		rec := make([]byte, s.Size) // Append copies; reuse one buffer
		for i := 0; i < n && runErr == nil; i++ {
			start := st.env.Now()
			res.win.issue(start)
			lsn, err := commit(p, rec)
			if err == nil {
				res.win.ack(st.env.Now())
				res.Commits.Observe(sim.Duration(st.env.Now() - start))
				if s.CheckpointEvery > 0 && res.Commits.N()%uint64(s.CheckpointEvery) == 0 {
					err = res.Log.Checkpoint(p, lsn)
				}
			}
			if err != nil && runErr == nil {
				runErr = err
			}
		}
	}
	flush := func(p *sim.Proc) {
		if runErr = res.Log.FlushToNAND(p); runErr == nil {
			res.win.ack(st.env.Now())
			runErr = st.logFS.Device().Drain(p)
		}
	}
	st.env.Go("setup", func(p *sim.Proc) {
		if res.Log, runErr = s.open(st); runErr != nil {
			return
		}
		if s.WarmUp {
			if _, runErr = commit(p, make([]byte, s.Size)); runErr != nil {
				return
			}
		}
		if s.Clients == 0 {
			client(p, s.Records)
			if s.Flush && runErr == nil {
				flush(p)
			}
			return
		}
		per, extra := s.Records/s.Clients, s.Records%s.Clients
		for c := 0; c < s.Clients; c++ {
			n := per
			if c < extra {
				n++
			}
			st.env.Go(fmt.Sprintf("c%d", c), func(w *sim.Proc) { client(w, n) })
		}
	})
	st.env.Run()
	if s.Flush && s.Clients > 0 && runErr == nil {
		st.env.Go("flush", flush)
		st.env.Run()
	}
	return res, runErr
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
