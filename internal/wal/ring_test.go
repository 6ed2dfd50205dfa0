package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// segCfg is the standard ring test geometry: 16 KB segment files (4
// pages) on a 4-slot ring, two inner segments per file.
func segCfg(r *rig, mode CommitMode) Config {
	ps := int64(r.fs.PageSize())
	cfg := Config{
		Mode:             mode,
		FS:               r.fs,
		Name:             "seg",
		SegmentFileBytes: 4 * ps,
		Ring:             4,
		SegmentBytes:     2 * int(ps),
	}
	if mode == BA {
		cfg.SSD = r.ssd
		cfg.EIDs = []core.EID{0, 1}
	}
	return cfg
}

// openSeg opens (or, after a crash, reopens) the standard ring.
func openSeg(t *testing.T, r *rig, mode CommitMode) *Log {
	t.Helper()
	s, err := Open(r.env, segCfg(r, mode))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// segPayload pads records to ~1.4 KB so a handful fills a 16 KB
// segment file and the tests exercise rotation.
func segPayload(i int) string {
	return fmt.Sprintf("rec-%03d-", i) + strings.Repeat("p", 1400)
}

func TestRingValidation(t *testing.T) {
	r := newRig()
	ps := int64(r.fs.PageSize())
	f, _ := r.fs.Create("f", 4*ps)
	bad := []Config{
		{Mode: Sync}, // no File, no FS/Name
		{Mode: PMR, FS: r.fs, Name: "a", SegmentFileBytes: 4 * ps, Ring: 2, SSD: r.ssd, EIDs: []core.EID{0}}, // PMR is single-file
		{Mode: Sync, FS: r.fs, Name: "b", SegmentFileBytes: 4 * ps, Ring: 1},                                 // ring too small
		{Mode: Sync, FS: r.fs, Name: "c", SegmentFileBytes: 4*ps + 1, Ring: 2},
		{Mode: Sync, FS: r.fs, Name: "d", SegmentFileBytes: 4 * ps, Ring: 2, SegmentBytes: 3000},
		{Mode: Sync, File: f, FS: r.fs, Name: "e", SegmentFileBytes: 4 * ps, Ring: 2}, // both geometries
		{Mode: Sync, File: f, Ring: 2}, // a single file is a ring of one
	}
	for i, cfg := range bad {
		if _, err := Open(r.env, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestRingRoundtrip drives the full lifecycle in both modes:
// appends across several rotations, a mid-stream checkpoint, then a
// clean recovery through a fresh handle that must replay exactly the
// records past the checkpoint, in LSN order, with nothing to repair.
func TestRingRoundtrip(t *testing.T) {
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig()
			sl := openSeg(t, r, mode)
			const n = 28
			ends := make([]LSN, n)
			var ckpt LSN
			r.env.Go("write", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					lsn, err := sl.Append(p, []byte(segPayload(i)))
					if err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
					if err := sl.Commit(p, lsn); err != nil {
						t.Fatalf("commit %d: %v", i, err)
					}
					ends[i] = lsn
					// Checkpoint from inside segment 1, so segment 0 truncates.
					if i == 14 {
						ckpt = lsn
						if err := sl.Checkpoint(p, lsn); err != nil {
							t.Fatalf("checkpoint: %v", err)
						}
					}
				}
				if err := sl.FlushToNAND(p); err != nil {
					t.Fatalf("flush: %v", err)
				}
			})
			r.env.Run()
			if first, cur := sl.Segments(); cur < 2 || first == 0 {
				t.Fatalf("segments = [%d, %d], want rotation and truncation", first, cur)
			}
			if sl.CheckpointLSN() != ckpt {
				t.Fatalf("ckpt = %d, want %d", sl.CheckpointLSN(), ckpt)
			}

			rl := openSeg(t, r, mode)
			got, gotLSNs := r.recoverAll(t, rl)
			r.env.Go("resume", func(p *sim.Proc) {
				// The recovered log must accept appends right where the
				// old one stopped.
				if _, err := appendCommit(p, rl, "post-recovery"); err != nil {
					t.Fatalf("append after recover: %v", err)
				}
			})
			r.env.Run()
			if rep := rl.Repair(); rep.TornTail || rep.Failure != "" {
				t.Fatalf("clean shutdown reported a torn tail: %+v", rep)
			}
			if n := r.count(t, "wal.seg_torn_repairs"); n != 0 {
				t.Fatalf("repairs = %d, want none", n)
			}
			var want []string
			var wantLSNs []LSN
			for i := 0; i < n; i++ {
				if ends[i] > ckpt {
					want = append(want, segPayload(i))
					wantLSNs = append(wantLSNs, ends[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] || gotLSNs[i] != wantLSNs[i] {
					t.Fatalf("record %d: got %q@%d, want %q@%d",
						i, got[i][:12], gotLSNs[i], want[i][:12], wantLSNs[i])
				}
			}
			r.env.Shutdown()
		})
	}
}

// ringRotateRecover is the ring's contract in the two lazy block modes,
// whose commits return before the log device has the bytes: fill past
// two rotations with the write-behind timer armed all along, checkpoint,
// append into the loss window, cut power, and recover through a fresh
// handle. The prefix rule: Recover replays the records past the
// checkpoint in LSN order up to some point at or beyond what the device
// had at the cut — nothing below the checkpoint, nothing out of order,
// nothing that was never appended.
func ringRotateRecover(t *testing.T, mode CommitMode) {
	r := newRig()
	cfg := segCfg(r, mode)
	cfg.AsyncFlushInterval = 20 * sim.Millisecond // fires twice during the fill; the third outlasts the recovery
	sl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 28
	ends := make([]LSN, n)
	var ckpt LSN
	var onDevice int64
	var got []string
	var gotLSNs []LSN
	r.env.Go("run", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lsn, err := appendCommit(p, sl, segPayload(i))
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			ends[i] = lsn
			if !sl.asyncScheduled {
				t.Fatalf("record %d: no write-behind timer armed after a commit", i)
			}
			switch {
			case i < 24:
				p.Sleep(2 * sim.Millisecond)
			case i == 24:
				// Checkpoint two records back, inside segment 2: segments 0
				// and 1 truncate, records 23 and 24 reach the device with it.
				ckpt = ends[22]
				if sl.flushedOff >= int64(ckpt) {
					t.Fatalf("device frontier %d at the checkpoint: the write-behind is not lagging", sl.flushedOff)
				}
				if err := sl.Checkpoint(p, ckpt); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				if sl.flushedOff < int64(ckpt) {
					t.Fatalf("checkpoint %d recorded with the device at %d: it covers records recovery cannot read", ckpt, sl.flushedOff)
				}
			}
		}
		if first, cur := sl.Segments(); first < 2 || cur < 2 {
			t.Fatalf("segments = [%d, %d], want two rotations and a truncation", first, cur)
		}
		onDevice = sl.flushedOff
		r.powerCycle(t, p)
		// The sim cannot kill the dead handle's armed timer: recovery has
		// to finish before it fires (checked below).
		rl, err := Open(r.env, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := rl.Recover(p, func(lsn LSN, payload []byte) error {
			got, gotLSNs = append(got, string(payload)), append(gotLSNs, lsn)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if sl.flushedOff != onDevice {
			t.Fatalf("the dead handle flushed to %d during recovery: the loss window closed", sl.flushedOff)
		}
		if rl.CheckpointLSN() != ckpt || rl.AppendOff() < int64(ckpt) {
			t.Fatalf("recovered checkpoint %d tail %d, want checkpoint %d and a tail at or past it",
				rl.CheckpointLSN(), rl.AppendOff(), ckpt)
		}
	})
	r.env.Run()
	if onDevice >= int64(ends[n-1]) {
		t.Fatalf("device frontier %d at the cut: no record was left in the loss window", onDevice)
	}
	var want []string
	var wantLSNs []LSN
	mustHave := 0
	for i := 0; i < n; i++ {
		if ends[i] > ckpt {
			want, wantLSNs = append(want, segPayload(i)), append(wantLSNs, ends[i])
			if int64(ends[i]) <= onDevice {
				mustHave++
			}
		}
	}
	if mustHave == 0 || len(got) < mustHave || len(got) > len(want) {
		t.Fatalf("replayed %d records, want between %d (on the device at the cut) and %d (appended past the checkpoint)",
			len(got), mustHave, len(want))
	}
	for i := range got {
		if got[i] != want[i] || gotLSNs[i] != wantLSNs[i] {
			t.Fatalf("record %d: got %q@%d, want %q@%d", i, got[i][:12], gotLSNs[i], want[i][:12], wantLSNs[i])
		}
	}
	r.env.Shutdown()
}

func TestRingAsyncRotateRecover(t *testing.T) { ringRotateRecover(t, Async) }
func TestRingPMRotateRecover(t *testing.T)    { ringRotateRecover(t, PM) }

// buildBoundaryTail writes records until the first user record lands
// just past a segment boundary — the final record of the stream is the
// first user record of segment 1 — and returns everything a corruption
// test needs to mangle it on media.
func buildBoundaryTail(t testing.TB) (r *rig, payloads []string, last LSN) {
	t.Helper()
	r = newRig()
	sl, err := Open(r.env, segCfg(r, Sync))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.env.Go("write", func(p *sim.Proc) {
		for i := 0; ; i++ {
			payload := segPayload(i)
			lsn, err := appendCommit(p, sl, payload)
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			payloads = append(payloads, payload)
			last = lsn
			if _, cur := sl.Segments(); cur == 1 {
				return // this record straddled the rotation into segment 1
			}
		}
	})
	r.env.Run()
	return r, payloads, last
}

// boundaryMangles are the two ways the torn-boundary tests (and the
// FuzzScan seeds) tear the straddling record: write(off, b) patches
// segment 1's ring file, start is the record's local start offset.
var boundaryMangles = []struct {
	name   string
	mangle func(write func(off int64, b []byte), start int64)
}{
	{"crc", func(write func(off int64, b []byte), start int64) {
		write(start+RecordOverhead, []byte{'X'}) // flip a payload byte
	}},
	{"overrun", func(write func(off int64, b []byte), start int64) {
		n := make([]byte, 4)
		binary.LittleEndian.PutUint32(n, 1<<30) // length overruns the segment
		write(start, n)
	}},
}

// mangleBoundaryTail applies mangle to the straddling record on media
// via the raw ring file seg.1.
func mangleBoundaryTail(t testing.TB, r *rig, last LSN, lastLen int, mangle func(write func(off int64, b []byte), start int64)) {
	t.Helper()
	f, err := r.fs.Open("seg.1")
	if err != nil {
		t.Fatalf("open seg.1: %v", err)
	}
	localStart := int64(last) - segCfg(r, Sync).SegmentFileBytes - int64(lastLen) - RecordOverhead
	r.env.Go("corrupt", func(p *sim.Proc) {
		mangle(func(off int64, b []byte) {
			if err := f.WriteAt(p, off, b); err != nil {
				t.Fatalf("corrupt write: %v", err)
			}
		}, localStart)
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	r.env.Run()
}

// TestRingTornBoundaryRecord tears the final record right after a
// segment boundary — the first user record of a freshly rotated
// segment — in two ways: a payload bit flip (CRC mismatch) and an
// overrun length field. Recovery must replay everything before the
// boundary, cut the tail back durably, and a second recovery must find
// nothing left to repair (the repair is idempotent).
func TestRingTornBoundaryRecord(t *testing.T) {
	for _, tc := range boundaryMangles {
		t.Run(tc.name, func(t *testing.T) {
			r, payloads, last := buildBoundaryTail(t)
			mangleBoundaryTail(t, r, last, len(payloads[len(payloads)-1]), tc.mangle)
			rl := openSeg(t, r, Sync)
			got, _ := r.recoverAll(t, rl)
			rep := rl.Repair()
			if !rep.TornTail || rep.Failure != "" {
				t.Fatalf("recovery missed the torn tail: %+v", rep)
			}
			// The cut lands right after segment 1's header record.
			segBytes := segCfg(r, Sync).SegmentFileBytes
			wantCut := LSN(segBytes + RecordOverhead + segHdrBytes)
			if rep.RepairedAt != wantCut {
				t.Fatalf("repaired at %d, want %d", rep.RepairedAt, wantCut)
			}
			want := payloads[:len(payloads)-1] // the torn record is dropped
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs after repair", i)
				}
			}

			// Idempotence: a fresh recovery over the repaired media finds a
			// clean tail and repairs nothing.
			rl2 := openSeg(t, r, Sync)
			again, _ := r.recoverAll(t, rl2)
			if rep2 := rl2.Repair(); rep2.TornTail || rep2.Failure != "" {
				t.Fatalf("second recovery re-reported the repaired tail: %+v", rep2)
			}
			if len(again) != len(want) {
				t.Fatalf("second recovery replayed %d, want %d", len(again), len(want))
			}
			r.env.Shutdown()
		})
	}
}

// TestProbeErrorFailsRecover corrupts the header page of a mid-chain
// ring slot on NAND, so reading it fails its integrity tag. Recovery
// used to take any unreadable header page for a free slot, end the
// chain walk there and report a shorter log — whose next appends then
// overwrote live records. It must fail loudly instead.
func TestProbeErrorFailsRecover(t *testing.T) {
	r := newRig()
	sl := openSeg(t, r, Sync)
	r.env.Go("write", func(p *sim.Proc) {
		for i := 0; i < 25; i++ { // three segments' worth: seg.1 is mid-chain
			if _, err := appendCommit(p, sl, segPayload(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		r.settle(t, p, sl)
	})
	r.env.Run()
	if _, cur := sl.Segments(); cur < 2 {
		t.Fatalf("active segment %d: seg.1 is not mid-chain", cur)
	}
	f, err := r.fs.Open("seg.1")
	if err != nil {
		t.Fatalf("open seg.1: %v", err)
	}
	r.corruptFilePage(t, f, 0) // the header page

	rl := openSeg(t, r, Sync)
	replayed := 0
	r.env.Go("recover", func(p *sim.Proc) {
		err = rl.Recover(p, func(LSN, []byte) error { replayed++; return nil })
	})
	r.env.Run()
	if !errors.Is(err, integrity.ErrPageCorrupt) {
		t.Fatalf("recover over an unreadable mid-chain header: err = %v after %d records, want ErrPageCorrupt",
			err, replayed)
	}
	r.env.Shutdown()
}

// TestRingTruncationRacesReader checkpoints past a lagging tail
// reader: the reader streams a valid prefix, then gets a clean
// ErrTruncated — never garbage — once its position falls below the
// retention floor.
func TestRingTruncationRacesReader(t *testing.T) {
	r := newRig()
	sl := openSeg(t, r, Sync)
	reader := sl.Tail(0)
	var prefix []string
	var truncErr error
	r.env.Go("race", func(p *sim.Proc) {
		// Commit a couple of records and let the reader consume them.
		for i := 0; i < 2; i++ {
			if _, err := appendCommit(p, sl, segPayload(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		for {
			rec, ok, err := reader.TryNext()
			if err != nil || !ok {
				break
			}
			prefix = append(prefix, string(rec.Payload))
		}
		// Now outrun the reader: enough records to rotate twice, then a
		// checkpoint that truncates the reader's segment away.
		var last LSN
		for i := 2; i < 25; i++ {
			lsn, err := appendCommit(p, sl, segPayload(i))
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			last = lsn
		}
		if err := sl.Checkpoint(p, last); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if LSN(0) >= sl.RetainedLSN() {
			t.Fatalf("checkpoint did not move the retention floor")
		}
		_, _, truncErr = reader.TryNext()
	})
	r.env.Run()
	if len(prefix) != 2 || prefix[0] != segPayload(0) || prefix[1] != segPayload(1) {
		t.Fatalf("reader prefix = %d records, want the 2 committed ones", len(prefix))
	}
	if !errors.Is(truncErr, ErrTruncated) {
		t.Fatalf("lapped reader err = %v, want ErrTruncated", truncErr)
	}
	// A closed reader reports ErrReaderClosed, not the stale position.
	reader.Close()
	if _, _, err := reader.TryNext(); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("closed reader err = %v, want ErrReaderClosed", err)
	}
	r.env.Shutdown()
}

// TestTailRetainsFromFirstReader: a log nobody tails caches nothing,
// and a reader opened late is told — not silently spared — the records
// appended before retention began.
func TestTailRetainsFromFirstReader(t *testing.T) {
	r := newRig()
	sl := openSeg(t, r, Sync)
	r.env.Go("t", func(p *sim.Proc) {
		first, err := appendCommit(p, sl, segPayload(0))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if sl.retained != nil {
			t.Fatal("an untailed log retained a record")
		}
		if _, _, err := sl.Tail(0).TryNext(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("reader below the retention start: err = %v, want ErrTruncated", err)
		}
		late := sl.Tail(first)
		if _, err := appendCommit(p, sl, segPayload(1)); err != nil {
			t.Fatalf("append: %v", err)
		}
		rec, ok, err := late.TryNext()
		if err != nil || !ok || string(rec.Payload) != segPayload(1) {
			t.Fatalf("late reader got %q ok=%v err=%v, want record 1", rec.Payload, ok, err)
		}
	})
	r.env.Run()
	r.env.Shutdown()
}

// TestTailPayloadIsTheLogsCopy pins TailRecord's read-only contract from
// the log's side, with a reader open from the start: every delivered
// payload stays the bytes appended, although the caller overwrites its
// Append buffer at once, a checkpoint truncates the record's segment, a
// Recover rebuilds the cache from media and more appends follow. Checks
// report with Errorf and return, so the proc ends cleanly on a failure.
func TestTailPayloadIsTheLogsCopy(t *testing.T) {
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig()
			defer r.env.Shutdown()
			sl := openSeg(t, r, mode)
			reader := sl.Tail(0)
			var got []TailRecord
			drain := func(rd *TailReader) (recs []TailRecord) {
				for {
					rec, ok, err := rd.TryNext()
					if err != nil {
						t.Errorf("tail: %v", err)
					}
					if err != nil || !ok {
						return recs
					}
					recs = append(recs, rec)
				}
			}
			intact := func(when string, recs []TailRecord, first int) bool {
				for i, rec := range recs {
					if string(rec.Payload) != segPayload(first+i) {
						t.Errorf("%s: payload of record %d reads %.12q", when, first+i, rec.Payload)
						return false
					}
				}
				return true
			}
			r.env.Go("t", func(p *sim.Proc) {
				buf := make([]byte, len(segPayload(0)))
				var last LSN
				appendN := func(from, to int) bool {
					for i := from; i < to; i++ {
						copy(buf, segPayload(i))
						lsn, err := sl.Append(p, buf)
						copy(buf, strings.Repeat("z", len(buf))) // the caller reuses its buffer at once
						if err == nil {
							err = sl.Commit(p, lsn)
						}
						if err != nil {
							t.Errorf("record %d: %v", i, err)
							return false
						}
						last = lsn
					}
					got = append(got, drain(reader)...)
					return true
				}
				if !appendN(0, 20) || !intact("after the caller reused its buffer", got, 0) {
					return
				}
				ckpt := last // two segments in
				if err := sl.Checkpoint(p, ckpt); err != nil || sl.RetainedLSN() == 0 {
					t.Errorf("checkpoint truncated nothing (err %v)", err)
					return
				}
				if !intact("after a checkpoint truncated their segment", got, 0) || !appendN(20, 30) {
					return
				}
				if err := sl.Recover(p, nil); err != nil {
					t.Errorf("recover: %v", err)
					return
				}
				recached := drain(sl.Tail(ckpt))
				if len(recached) != 10 {
					t.Errorf("Recover re-cached %d records past the checkpoint, want 10", len(recached))
					return
				}
				if !intact("re-cached", recached, 20) || !intact("after Recover re-cached them", got, 0) ||
					!appendN(30, 36) {
					return
				}
				if intact("after appends on top of the re-cache", got, 0) {
					intact("re-cached, after later appends", recached, 20)
				}
			})
			r.env.Run()
			if !t.Failed() && len(got) != 36 {
				t.Fatalf("reader delivered %d records, want 36", len(got))
			}
		})
	}
}

// A steady-state Append on a tailed log makes no heap object of its own:
// the tail cache's copy of the record is carved from the log's arena.
func TestTailedAppendDoesNotAllocate(t *testing.T) {
	r := newRig()
	defer r.env.Shutdown()
	l := r.openLog(t, "tailed", Sync)
	l.Tail(0)
	rec := make([]byte, 100)
	var allocs float64
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // past the cache's first slice doublings
			if _, err := l.Append(p, rec); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := l.Append(p, rec); err != nil {
				t.Fatalf("append: %v", err)
			}
		})
	})
	r.env.Run()
	if allocs >= 0.05 {
		t.Fatalf("%.2f allocations per tailed Append, want < 0.05", allocs)
	}
}

// mixedPayload draws appender c's i-th record: half are ~10 B, half up
// to 7 KB, so a small record's MMIO store finishes long before a large
// neighbour reserved ahead of it.
func mixedPayload(rng *rand.Rand, c, i int) string {
	size := 10
	if rng.Intn(2) == 0 {
		size += rng.Intn(7 << 10)
	}
	return fmt.Sprintf("c%d-%d-", c, i) + strings.Repeat("m", size)
}

// TestTailOrderUnderConcurrentAppenders: BA appenders store their
// records outside the log's lock, so stores complete out of LSN order
// (the durable frontier waits for the lowest one, so it never passes a
// record still in flight). A tail reader must deliver every record
// exactly once, in LSN order, stamped with its append instant.
func TestTailOrderUnderConcurrentAppenders(t *testing.T) {
	r := newRig()
	sl := r.openLog(t, "tailed", BA)
	reader := sl.Tail(0)
	ends := map[LSN]string{}
	wg := r.env.NewWaitGroup("appenders")
	wg.Add(4)
	for c := 0; c < 4; c++ {
		r.env.GoIdx("append", c, func(p *sim.Proc, c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 8; i++ {
				payload := mixedPayload(rng, c, i)
				lsn, err := appendCommit(p, sl, payload)
				if err != nil {
					t.Errorf("appender %d op %d: %v", c, i, err)
					return
				}
				ends[lsn] = payload
			}
		})
	}
	var got []TailRecord
	r.env.Go("tail", func(p *sim.Proc) {
		for len(got) < 32 {
			rec, ok, err := reader.TryNext()
			if err != nil {
				t.Errorf("tail: %v", err)
				return
			}
			if !ok {
				sl.WaitTail(p)
				continue
			}
			if rec.At == 0 {
				t.Errorf("delivered record %d before it was stored", rec.LSN)
			}
			got = append(got, rec)
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		wg.Wait(p)
		sl.WakeTail()
	})
	r.env.Run()
	if len(got) != 32 {
		t.Fatalf("tail delivered %d records, want 32", len(got))
	}
	for i, rec := range got {
		if i > 0 && rec.LSN <= got[i-1].LSN {
			t.Fatalf("record %d out of LSN order: %d after %d", i, rec.LSN, got[i-1].LSN)
		}
		if ends[rec.LSN] != string(rec.Payload) {
			t.Fatalf("record at %d is not the one appended there", rec.LSN)
		}
	}
	r.env.Shutdown()
}

// groupCommitFingerprint runs 8 concurrent committers on a fresh env
// and digests everything observable: lifecycle metrics, frontiers, and
// a CRC over every ring file's media bytes.
func groupCommitFingerprint(t *testing.T, mode CommitMode) (fp string, commits, groupFlushes uint64) {
	t.Helper()
	r := newRig()
	sl := openSeg(t, r, mode)
	wg := r.env.NewWaitGroup("committers")
	wg.Add(8)
	for c := 0; c < 8; c++ {
		r.env.GoIdx("commit", c, func(p *sim.Proc, c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				payload := fmt.Sprintf("c%d-%02d-%s", c, i, strings.Repeat("g", 900))
				if _, err := appendCommit(p, sl, payload); err != nil {
					t.Errorf("committer %d op %d: %v", c, i, err)
					return
				}
			}
		})
	}
	var media uint32
	r.env.Go("main", func(p *sim.Proc) {
		wg.Wait(p)
		if err := sl.Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if err := sl.FlushToNAND(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		crc := crc32.NewIEEE()
		for _, f := range sl.files {
			buf := make([]byte, f.Capacity())
			if err := f.ReadAt(p, 0, buf); err != nil {
				t.Fatalf("read media: %v", err)
			}
			crc.Write(buf)
		}
		media = crc.Sum32()
	})
	r.env.Run()
	commits, groupFlushes = r.count(t, "wal.seg_commits"), r.count(t, "wal.seg_group_flushes")
	fp = fmt.Sprintf("media=%08x tail=%d durable=%d commits=%d flushes=%d rotations=%d commit_ns=%d",
		media, sl.AppendOff(), sl.DurableOff(), commits, groupFlushes,
		r.count(t, "wal.seg_rotations"), r.histo("wal.seg_commit_ns").Sum())
	r.env.Shutdown()
	return fp, commits, groupFlushes
}

// TestRingGroupCommitDeterminism: N concurrent committers produce
// byte-identical media and metrics across independent runs, and on the
// block+flush path the group-commit leader demonstrably coalesces
// multiple committers per flush.
func TestRingGroupCommitDeterminism(t *testing.T) {
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(mode.String(), func(t *testing.T) {
			a, commits, flushes := groupCommitFingerprint(t, mode)
			b, _, _ := groupCommitFingerprint(t, mode)
			if a != b {
				t.Fatalf("group commit nondeterministic:\n  %s\n  %s", a, b)
			}
			if commits != 48 { // 8 committers x 6 records; the final Drain is not a Commit
				t.Fatalf("commits = %d, want 48", commits)
			}
			if flushes == 0 || flushes > commits {
				t.Fatalf("group flushes = %d (commits %d)", flushes, commits)
			}
			if mode == Sync && flushes >= commits {
				t.Fatalf("sync mode never coalesced: %d flushes for %d commits", flushes, commits)
			}
		})
	}
}

// TestNoSpuriousWakeUps pins the events two runs dispatch while
// processes are parked on the log's one signal for something other than
// a store: the group-commit followers of 8 Sync-mode committers, and a
// tail reader behind one BA appender. The followers wait in WaitUntil,
// so a flush leader's Fire resumes only those whose commit it made
// durable or who may lead the next flush; the kernel re-checks the rest
// in place, and a re-check is not an event. The SYNC golden moves if a
// follower is resumed only to park again (265 when it was). A store
// that fired the signal with nobody parked on stores would wake the
// tail reader, a plain waiter, and move the BA golden.
func TestNoSpuriousWakeUps(t *testing.T) {
	const records = 6
	for _, leg := range []struct {
		mode       CommitMode
		committers int
		tailed     bool
		events     uint64
	}{
		{Sync, 8, false, 223},
		{BA, 1, true, 31},
	} {
		t.Run(leg.mode.String(), func(t *testing.T) {
			r := newRig()
			sl := openSeg(t, r, leg.mode)
			if leg.tailed {
				reader := sl.Tail(0)
				r.env.Go("tail", func(p *sim.Proc) {
					for n := 0; n < leg.committers*records; {
						if _, ok, err := reader.TryNext(); err != nil {
							t.Errorf("tail: %v", err)
							return
						} else if ok {
							n++
						} else {
							sl.WaitTail(p)
						}
					}
				})
			}
			for c := 0; c < leg.committers; c++ {
				r.env.GoIdx("commit", c, func(p *sim.Proc, c int) {
					for i := 0; i < records; i++ {
						payload := fmt.Sprintf("c%d-%02d-%s", c, i, strings.Repeat("w", 900))
						if _, err := appendCommit(p, sl, payload); err != nil {
							t.Errorf("committer %d op %d: %v", c, i, err)
							return
						}
					}
				})
			}
			r.env.Run()
			if got := r.env.Events(); got != leg.events {
				t.Errorf("dispatched %d events, want %d", got, leg.events)
			}
			r.env.Shutdown()
		})
	}
}

// TestRingBAPowerLoss cuts power under the BA byte path with a
// committed history plus one staged (uncommitted) record: after the
// capacitor dump and a fresh recovery, every committed record replays
// in order; the staged record may legitimately survive the dump but
// nothing else may appear.
func TestRingBAPowerLoss(t *testing.T) {
	r := newRig()
	sl := openSeg(t, r, BA)
	const n = 10
	r.env.Go("crash", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := appendCommit(p, sl, segPayload(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if _, err := sl.Append(p, []byte("staged-only")); err != nil {
			t.Fatalf("stage: %v", err)
		}
		r.powerCycle(t, p)
	})
	r.env.Run()

	rl := openSeg(t, r, BA)
	got, _ := r.recoverAll(t, rl)
	if fail := rl.Repair().Failure; fail != "" {
		t.Fatalf("repair failed: %s", fail)
	}
	if len(got) < n {
		t.Fatalf("recovered %d records, want the %d committed ones", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != segPayload(i) {
			t.Fatalf("committed record %d lost or reordered", i)
		}
	}
	for _, extra := range got[n:] {
		if extra != "staged-only" {
			t.Fatalf("phantom record %q recovered", extra[:min(len(extra), 16)])
		}
	}
	r.env.Shutdown()
}

// TestRingBAConcurrentAppendersPowerLoss cuts power after six
// concurrent appenders with mixed 10 B–7 KB records have all had every
// commit acknowledged. Small records finish their MMIO store long
// before a large neighbour reserved ahead of them, so a commit must not
// count the neighbour's bytes durable, and neither a rotation, a
// background flush nor (with a single window) the next appender's pin
// may BA_FLUSH a window a store is still landing in: every acknowledged
// record has to replay, with no torn tail to cut. The rule is the log's,
// not a geometry's, so the same 64 pages run as a ring of 16 files and
// as one file.
func TestRingBAConcurrentAppendersPowerLoss(t *testing.T) {
	for _, leg := range []struct {
		name string
		ring int
		eids []core.EID
	}{
		{"ring", 16, []core.EID{0, 1}},
		{"file", 1, []core.EID{0, 1}},
		{"ring-one-window", 16, []core.EID{0}},
		{"file-one-window", 1, []core.EID{0}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				concurrentAppendersPowerLoss(t, seed, leg.ring, leg.eids)
			}
		})
	}
}

func concurrentAppendersPowerLoss(t *testing.T, seed int64, ring int, eids []core.EID) {
	r := newRig()
	cfg := segCfg(r, BA)
	cfg.Ring, cfg.EIDs = ring, eids
	if ring == 1 {
		f, err := r.fs.Create("seg", 16*cfg.SegmentFileBytes)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		cfg.File, cfg.FS, cfg.Name, cfg.SegmentFileBytes = f, nil, "", 0
	}
	sl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked := map[LSN]string{}
	wg := r.env.NewWaitGroup("appenders")
	wg.Add(6)
	for c := 0; c < 6; c++ {
		r.env.GoIdx("append", c, func(p *sim.Proc, c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*6 + int64(c)))
			for i := 0; i < 6; i++ {
				payload := mixedPayload(rng, c, i)
				lsn, err := appendCommit(p, sl, payload)
				if err != nil {
					t.Errorf("seed %d appender %d op %d: %v", seed, c, i, err)
					return
				}
				acked[lsn] = payload
			}
		})
	}
	r.env.Go("crash", func(p *sim.Proc) {
		wg.Wait(p)
		r.powerCycle(t, p)
	})
	r.env.Run()

	rl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, lsns := r.recoverAll(t, rl)
	if rep := rl.Repair(); rep.TornTail {
		t.Errorf("seed %d: torn tail at %d with every commit acknowledged", seed, rep.RepairedAt)
	}
	for i, lsn := range lsns {
		if acked[lsn] != got[i] {
			t.Fatalf("seed %d: record at %d is not the one acknowledged there", seed, lsn)
		}
		delete(acked, lsn)
	}
	if len(acked) != 0 {
		t.Errorf("seed %d: lost %d acknowledged records", seed, len(acked))
	}
	r.env.Shutdown()
}

// geometryRun pushes one seeded record stream — sizes, commit pattern
// and a power cut after record 23 is committed and record 24 staged —
// through a log of the given ring size over the same total capacity,
// recovers it through a fresh handle, and returns the replayed records
// plus (for a ring of one) a CRC of the file's media bytes.
func geometryRun(t *testing.T, mode CommitMode, ring int) (recovered []string, media uint32) {
	t.Helper()
	r := newRig()
	ps := int64(r.fs.PageSize())
	cfg := Config{Mode: mode, SegmentBytes: 2 * int(ps)}
	if mode == BA {
		cfg.SSD, cfg.EIDs = r.ssd, []core.EID{0, 1}
	}
	if ring == 1 {
		f, err := r.fs.Create("geo", 16*ps)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		cfg.File = f
	} else {
		cfg.FS, cfg.Name, cfg.Ring, cfg.SegmentFileBytes = r.fs, "geo", ring, 16*ps/int64(ring)
	}
	l, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r.env.Go("stream", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(0x2b55d))
		for i := 0; i <= 24; i++ {
			payload := fmt.Sprintf("geo-%03d-", i) + strings.Repeat(string(rune('a'+i%26)), 100+rng.Intn(1200))
			lsn, err := l.Append(p, []byte(payload))
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if commit := rng.Intn(3) != 0; i < 24 && (commit || i == 23) {
				if err := l.Commit(p, lsn); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
		}
		r.powerCycle(t, p)
	})
	r.env.Run()

	rl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recovered, _ = r.recoverAll(t, rl)
	if ring == 1 {
		r.env.Go("media", func(p *sim.Proc) {
			buf := make([]byte, cfg.File.Capacity())
			if err := cfg.File.ReadAt(p, 0, buf); err != nil {
				t.Fatalf("read media: %v", err)
			}
			media = crc32.ChecksumIEEE(buf)
		})
		r.env.Run()
	}
	r.env.Shutdown()
	return recovered, media
}

// TestGeometryEquivalence: the ring is geometry, not semantics. The
// same stream through a ring of one and a ring of four recovers the
// same record sequence, and the ring-of-one file is byte for byte the
// image the pre-unification single-file wal.Log left on media (golden
// CRCs captured from that implementation on this stream).
func TestGeometryEquivalence(t *testing.T) {
	golden := map[CommitMode]uint32{Sync: goldenSyncCRC, BA: goldenBACRC}
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(mode.String(), func(t *testing.T) {
			one, media := geometryRun(t, mode, 1)
			four, _ := geometryRun(t, mode, 4)
			if len(one) < 24 {
				t.Fatalf("ring of one recovered %d records, want the 24 committed", len(one))
			}
			if len(one) != len(four) {
				t.Fatalf("ring of one recovered %d records, ring of four %d", len(one), len(four))
			}
			for i := range one {
				if one[i] != four[i] {
					t.Fatalf("record %d differs between geometries", i)
				}
			}
			if media != golden[mode] {
				t.Fatalf("ring-of-one media CRC = %#08x, want %#08x (the single-file log's image)", media, golden[mode])
			}
		})
	}
}

// Media CRCs of geometryRun's ring-of-one file under the parent
// commit's single-file wal.Log.
const (
	goldenSyncCRC = 0xe467a2ea
	goldenBACRC   = 0xc6678bea
)
