package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// Property: a BA log pins at most two segments. Over seeds, with a
// memtable size that is not page aligned (so the segment is sometimes
// the memtable's page-rounded size, sometimes logSegmentPages), and
// values of 1 B up to nearly a segment, after every Put each live log
// file holds at most two mapping-table entries, each exactly one
// segment inside the file.
func TestPropertyBALogPinsAtMostTwoSegments(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := newDBRig()
		rng := rand.New(rand.NewSource(seed))
		cfg := r.config(wal.BA)
		cfg.MemtableBytes = 8<<10 + rng.Intn(120<<10)
		cfg.WALBytes = 0 // twice the memtable
		r.env.Go("t", func(p *sim.Proc) {
			db, err := Open(r.env, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps := r.ssd.PageSize()
			seg := db.logSegment()
			if want := min(logSegmentPages*ps, (cfg.MemtableBytes+ps-1)/ps*ps); seg != want {
				t.Fatalf("seed %d: a %d B memtable's segment is %d B, want %d", seed, cfg.MemtableBytes, seg, want)
			}
			for i := 0; i < 400; i++ {
				n := 1 + rng.Intn(1<<10)
				if rng.Intn(8) == 0 {
					n = 1 + rng.Intn(seg-32) // up to a whole segment's record
				}
				if err := db.Put(p, []byte(fmt.Sprintf("k%04d", rng.Intn(200))), make([]byte, n)); err != nil {
					t.Fatalf("seed %d put %d (%d B): %v", seed, i, n, err)
				}
				pinned := map[string]int{}
				for _, e := range r.ssd.Entries() {
					f := db.actFile
					if e.LBA < f.LBA(0) || e.LBA >= f.LBA(f.Capacity()) {
						f = nil
						for _, name := range r.fs.List() {
							g, _ := r.fs.Open(name)
							if e.LBA >= g.LBA(0) && e.LBA < g.LBA(g.Capacity()) {
								f = g
							}
						}
					}
					if f == nil || e.Pages*ps != seg || e.LBA+ftl.LBA(e.Pages) > f.LBA(f.Capacity()) {
						t.Fatalf("seed %d put %d: entry %d pins %d pages at LBA %d, not one %d-page segment of a log file", seed, i, e.ID, e.Pages, e.LBA, seg/ps)
					}
					if pinned[f.Name()]++; pinned[f.Name()] > 2 {
						t.Fatalf("seed %d put %d: %s pins more than two segments", seed, i, f.Name())
					}
				}
			}
			if db.Stats().MemtableRotations < 4 {
				t.Fatalf("seed %d: %d rotations; the logs barely filled", seed, db.Stats().MemtableRotations)
			}
		})
		r.env.Run()
	}
}

// Reopening a BA DB cut mid-log BA_FLUSHes at most two segments: the
// cut left only the segment pair the log was writing pinned, not the
// pages of the whole memtable it logged.
func TestReopenFlushesAtMostTwoSegments(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		cfg.MemtableBytes = 256 << 10
		cfg.WALBytes = 512 << 10
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Put(p, []byte(fmt.Sprintf("k%03d", i)), make([]byte, 1<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if n := db.Stats().MemtableRotations; n != 0 {
			t.Fatalf("%d rotations; the cut must land mid-log", n)
		}
		seg := db.logSegment()
		if off := db.walAct.AppendOff(); off < int64(3*seg) {
			t.Fatalf("the log is %d B long, less than three %d B segments", off, seg)
		}
		powerCycle(t, p, r)
		before := counter(t, r.env, "2bssd.pages_flushed")
		db2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		flushed := counter(t, r.env, "2bssd.pages_flushed") - before
		if ps := r.ssd.PageSize(); flushed == 0 || flushed > uint64(2*seg/ps) {
			t.Fatalf("Open BA_FLUSHed %d pages, want 1 to %d (two segments)", flushed, 2*seg/ps)
		}
		if n := db2.imm.len(); n != 200 {
			t.Fatalf("replayed %d records, want 200", n)
		}
	})
	r.env.Run()
}

// A BA Put whose record does not fit a segment fails with
// wal.ErrTooLarge, applies nothing and rotates nothing; the DB keeps
// serving what it holds and takes the next Put.
func TestPutLargerThanASegmentFails(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		cfg.MemtableBytes = 256 << 10 // room for the value: the log refuses it, not the memtable
		cfg.WALBytes = 512 << 10
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(p, []byte("small"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		big := make([]byte, db.logSegment())
		for range 2 {
			if err := db.Put(p, []byte("big"), big); !errors.Is(err, wal.ErrTooLarge) {
				t.Fatalf("put of a %d B value into a %d B segment: %v, want wal.ErrTooLarge", len(big), db.logSegment(), err)
			}
		}
		if n := db.Stats().MemtableRotations; n != 0 {
			t.Fatalf("two refused puts rotated %d memtables, want 0", n)
		}
		if _, ok, err := db.Get(p, []byte("big")); ok || err != nil {
			t.Fatalf("the refused key reads back: ok=%v err=%v", ok, err)
		}
		if err := db.Put(p, []byte("after"), []byte("w")); err != nil {
			t.Fatalf("put after the refused one: %v", err)
		}
		for k, want := range map[string]string{"small": "v", "after": "w"} {
			if v, ok, err := db.Get(p, []byte(k)); !ok || err != nil || string(v) != want {
				t.Fatalf("%s = %q ok=%v err=%v, want %q", k, v, ok, err, want)
			}
		}
	})
	r.env.Run()
}

// A BA DB takes its EIDs in pairs, two pairs at least: one per log
// that can pin at once.
func TestOpenRejectsUnpairedEIDs(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		for _, eids := range [][]core.EID{{0, 1}, {0, 1, 2}, {0, 1, 2, 3, 4}} {
			cfg := r.config(wal.BA)
			cfg.EIDs = eids
			if _, err := Open(r.env, p, cfg); err == nil {
				t.Fatalf("Open with EIDs %v succeeded", eids)
			}
		}
	})
	r.env.Run()
}

// A BA log whose padding fills its file before the memtable's charge
// reaches MemtableBytes rotates instead of failing: a tiny record then
// one nearly a segment long pads out each segment, so two puts spend
// two segments of log for one segment of charge.
func TestPaddedLogRotatesAtItsFileEnd(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		cfg.MemtableBytes = 256 << 10
		cfg.WALBytes = 256<<10 + 1 // five 64 KB segments
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seg := db.logSegment()
		for i := 0; i < 8; i++ {
			if err := db.Put(p, []byte(fmt.Sprintf("t%d", i)), []byte("v")); err != nil {
				t.Fatalf("tiny put %d: %v", i, err)
			}
			if err := db.Put(p, []byte(fmt.Sprintf("b%d", i)), make([]byte, seg-40)); err != nil {
				t.Fatalf("big put %d: %v", i, err)
			}
		}
		if db.Stats().MemtableRotations == 0 {
			t.Fatal("the log never filled its file")
		}
		for i := 0; i < 8; i++ {
			if v, ok, err := db.Get(p, []byte(fmt.Sprintf("t%d", i))); !ok || err != nil || string(v) != "v" {
				t.Fatalf("t%d = %q ok=%v err=%v", i, v, ok, err)
			}
		}
	})
	r.env.Run()
}

// putKeys commits keys k00.. k<n-1> with values tagged by ver.
func putKeys(t *testing.T, p *sim.Proc, db *DB, n int, ver string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(p, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprint(ver, i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// wantKeys checks that db serves keys k00.. k<n-1> at the values want
// names.
func wantKeys(t *testing.T, p *sim.Proc, db *DB, n int, want func(i int) string) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(p, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != want(i) {
			t.Fatalf("k%02d = %q (ok=%v err=%v), want %q", i, v, ok, err, want(i))
		}
	}
}

// counter reads a registry counter of env.
func counter(t testing.TB, e *sim.Env, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

// powerCycle cuts the rig drive's power and brings it back.
func powerCycle(t *testing.T, p *sim.Proc, r *dbRig) {
	t.Helper()
	if _, err := r.ssd.PowerLoss(p); err != nil {
		t.Fatalf("power loss: %v", err)
	}
	if err := r.ssd.PowerOn(p); err != nil {
		t.Fatalf("power on: %v", err)
	}
}

// A BA DB reopened after a power cut serves every recovered key from
// the replayed memtable before the SST that the background flush writes
// lands; once it lands, the recovered log is gone and the keys are
// served from L0.
func TestReopenServesRecoveredKeysBeforeTheirSST(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		cfg.ReadCPU = sim.Nanosecond
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		putKeys(t, p, db, 40, "v")
		powerCycle(t, p, r)
		db2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if db2.imm == nil || db2.imm.len() != 40 {
			t.Fatal("the reopened DB holds no replayed memtable")
		}
		wantKeys(t, p, db2, 40, func(i int) string { return fmt.Sprint("v", i) })
		if db2.imm == nil || len(db2.levels[0]) != 0 {
			t.Fatal("the recovery SST landed before the reads were served")
		}
		if err := db2.FlushAll(p); err != nil {
			t.Fatal(err)
		}
		if n := len(db2.levels[0]); n != 1 {
			t.Fatalf("L0 holds %d tables after the recovery flush, want 1", n)
		}
		if r.fs.Exists(walName(0)) {
			t.Fatalf("%s outlived its SST", walName(0))
		}
		wantKeys(t, p, db2, 40, func(i int) string { return fmt.Sprint("v", i) })
	})
	r.env.Run()
}

// A second power cut while the reopened DB's recovery flush is in
// flight, after that DB has committed updates of its own, loses
// nothing. The recovered log stays until the recovery SST lands, so
// each old record comes back from that log at the next reopen, or —
// when the flush ran on across the cut (the host outlives a cut in this
// model) and landed first — sits in the SST it retired the log for;
// the updates come back from their own log, newest version on top.
func TestPowerCutDuringRecoveryFlushLosesNothing(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		cfg.WriteCPU = sim.Nanosecond // the updates land while the flush runs
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		putKeys(t, p, db, 40, "old")
		powerCycle(t, p, r)
		db2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		putKeys(t, p, db2, 10, "new")
		if db2.imm == nil || !r.fs.Exists(walName(0)) {
			t.Fatal("the recovery flush finished before the second cut")
		}
		powerCycle(t, p, r)
		landed := db2.imm == nil
		if landed == r.fs.Exists(walName(0)) {
			t.Fatalf("recovery SST landed %v, recovered log present %v", landed, !landed)
		}
		db3, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		wantKeys(t, p, db3, 10, func(i int) string { return fmt.Sprint("new", i) })
		old := db3
		if landed {
			old = db2 // the DB that installed the recovery SST serves it
		}
		for i := 10; i < 40; i++ {
			k := fmt.Sprintf("k%02d", i)
			v, ok, err := old.Get(p, []byte(k))
			if err != nil || !ok || string(v) != fmt.Sprint("old", i) {
				t.Fatalf("%s = %q (ok=%v err=%v), lost across the second cut (recovery SST landed: %v)", k, v, ok, err, landed)
			}
		}
	})
	r.env.Run()
}

// Reopening over leftover logs up to wal-000012 names the new active
// log wal-000013: the recovered logs stay until the recovery SST lands,
// so no new log may take one of their names.
func TestReopenOverLogTwelveCreatesNoCollidingName(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 8 << 10
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; db.rotation < 13; i++ {
			if err := db.Put(p, []byte(fmt.Sprintf("k%04d", i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		for db.imm != nil {
			db.immDone.Wait(p)
		}
		db.compactLock.Acquire(p) // the last flush's compaction is done
		db.compactLock.Release()
		if db.actFile.Name() != walName(12) {
			t.Fatalf("the active log is %s, want %s", db.actFile.Name(), walName(12))
		}
		db2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen over %s: %v", walName(12), err)
		}
		if got := db2.actFile.Name(); got != walName(13) {
			t.Fatalf("the reopened DB logs to %s, want %s", got, walName(13))
		}
		if err := db2.FlushAll(p); err != nil {
			t.Fatal(err)
		}
		if names := r.fs.List(); slices.Contains(names, walName(12)) || !slices.Contains(names, walName(13)) {
			t.Fatalf("logs after the flushes: %v", names)
		}
	})
	r.env.Run()
}
