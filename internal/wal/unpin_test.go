package wal

import (
	"errors"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/sim"
)

// pinnedLog cuts the power under a BA log whose first inner segments
// are pinned, two entries over its first four pages, and reopens it:
// the new handle's Recover finds the entries restored by the recovery
// manager and flushes them in its background unpin. ring selects the
// standard ring, whose first commands are the slot probes; otherwise
// the log is a 128-page file (a ring of one), whose first command is
// the scan's read-ahead run, and extra more pages are pinned at its
// page 100, past that run and past the log's tail.
func pinnedLog(t *testing.T, ring bool, extra int) (r *rig, rl *Log, payloads []string) {
	t.Helper()
	r = newRig()
	cfg := segCfg(r, BA)
	if !ring {
		f, err := r.fs.Create("log", 128*int64(r.fs.PageSize()))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		cfg.File, cfg.FS, cfg.Name, cfg.Ring, cfg.SegmentFileBytes = f, nil, "", 0, 0
	}
	sl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 6; i++ {
		payloads = append(payloads, segPayload(i))
	}
	f := sl.file(0)
	r.env.Go("write", func(p *sim.Proc) {
		for i, pl := range payloads {
			if _, err := appendCommit(p, sl, pl); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if extra > 0 {
			if err := r.ssd.BAPin(p, 2, 16*r.fs.PageSize(), f.LBA(0)+100, extra); err != nil {
				t.Fatalf("pin: %v", err)
			}
		}
		r.powerCycle(t, p)
	})
	r.env.Run()
	ents := r.ssd.Entries()
	if len(ents) != 2+min(extra, 1) || ents[0].LBA != f.LBA(0) || ents[1].LBA != f.LBA(0)+2 {
		t.Fatalf("entries at the reopen %+v, want two over the log's first four pages", ents)
	}
	if rl, err = Open(r.env, cfg); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return r, rl, payloads
}

// The scan starts before the unpin lands, and its first commands — on a
// ring the probe of seg.0's header page, on a file the read-ahead run —
// touch pinned pages. They wait for the entry to land instead of coming
// back gated: a gated run would be retried page by page, the pinned
// pages marked bad, and the walk would stop at them.
func TestRecoverReadsWaitForTheUnpin(t *testing.T) {
	for _, ring := range []bool{true, false} {
		r, rl, payloads := pinnedLog(t, ring, 0)
		got, _ := r.recoverAll(t, rl)
		if len(got) != len(payloads) {
			t.Fatalf("ring %v: recovered %d records, want %d", ring, len(got), len(payloads))
		}
		for i := range got {
			if got[i] != payloads[i] {
				t.Fatalf("ring %v: record %d is not the one acknowledged", ring, i)
			}
		}
		if n := r.count(t, "2bssd.gate_rejects"); n != 0 {
			t.Fatalf("ring %v: the LBA checker rejected %d commands during recovery", ring, n)
		}
		if ents := r.ssd.Entries(); len(ents) != 0 {
			t.Fatalf("ring %v: Recover returned with entries %+v still pinned", ring, ents)
		}
		r.env.Shutdown()
	}
}

// Recover returns only once the whole unpin has landed, also an entry
// the scan never reads: one pinned past the log's tail.
func TestRecoverWaitsForTheWholeUnpin(t *testing.T) {
	r, rl, payloads := pinnedLog(t, false, 24)
	defer r.env.Shutdown()
	n := 0
	r.env.Go("recover", func(p *sim.Proc) {
		if err := rl.Recover(p, func(LSN, []byte) error { n++; return nil }); err != nil {
			t.Errorf("recover: %v", err)
		}
		if ents := r.ssd.Entries(); len(ents) != 0 || rl.unpinning {
			t.Errorf("Recover returned with entries %+v still pinned (unpinning %v)", ents, rl.unpinning)
		}
	})
	r.env.Run()
	if n != len(payloads) {
		t.Fatalf("recovered %d records, want %d", n, len(payloads))
	}
}

// A second power cut under the background unpin fails Recover with the
// powered-off error, and Recover returns only once the unpin has ended.
func TestPowerCutDuringTheUnpinFailsRecover(t *testing.T) {
	r, rl, _ := pinnedLog(t, true, 0)
	defer r.env.Shutdown()
	var err error
	r.env.Go("recover", func(p *sim.Proc) {
		err = rl.Recover(p, nil)
		if rl.unpinning {
			t.Error("Recover returned while its unpin still ran")
		}
	})
	r.env.Go("cut", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		if !rl.unpinning {
			t.Error("the unpin was not running at the cut")
		}
		if _, err := r.ssd.PowerLoss(p); err != nil &&
			!errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
			t.Errorf("power loss: %v", err)
		}
	})
	r.env.Run()
	if !errors.Is(err, core.ErrPowerIsOff) {
		t.Fatalf("Recover = %v, want %v", err, core.ErrPowerIsOff)
	}
}
