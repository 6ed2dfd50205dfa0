package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

// settle pushes everything the log holds down to NAND, so every written
// page has a physical address a test can corrupt.
func (r *rig) settle(t testing.TB, p *sim.Proc, l *Log) {
	t.Helper()
	if err := l.FlushToNAND(p); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := r.ssd.Device().Drain(p); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// corruptFilePage makes page pg of f fail its integrity tag on read.
func (r *rig) corruptFilePage(t testing.TB, f *vfs.File, pg int) {
	t.Helper()
	dev := r.ssd.Device()
	ppa, ok := dev.FTL().PPAOf(f.LBA(int64(pg) * int64(dev.PageSize())))
	if !ok || !dev.Flash().CorruptPage(ppa, 1) {
		t.Fatalf("%s page %d is not on NAND", f.Name(), pg)
	}
}

// recycledSlotLog builds the log that has previously-written pages past
// its clean end, inside the tail segment's first read-ahead run: a ring
// slot recycled a lap later. It returns the log with its tail file, a
// page of that file below the tail and one past it.
func recycledSlotLog(t *testing.T, r *rig, mode CommitMode) (l *Log, f *vfs.File, inside, past int) {
	l = openSeg(t, r, mode)
	r.env.Go("write", func(p *sim.Proc) {
		appendLaps(t, p, l, 44) // four full segments, then four records
		r.settle(t, p, l)
	})
	r.env.Run()
	_, cur := l.Segments()
	f = l.file(cur)
	local := int(l.AppendOff() - cur*l.fileBytes)
	if cur < 4 || local == 0 || local > 2*l.ps {
		t.Fatalf("active segment %d, tail at local %d: want a lapped slot with a stale second half", cur, local)
	}
	return l, f, 0, f.Pages() - 1
}

// recovered is what one Recover reports.
type recovered struct {
	payloads []string
	lsns     []LSN
	tail     int64
	repair   RepairReport
}

// TestReadAheadNeverFailsOnUnconsumedPage: a multi-page recovery read
// that covers an unreadable page past the log's clean end (a torn
// capacitor dump leaves such pages) must not fail Recover — the record
// walk never consumes a byte of it. An unreadable page inside the log
// still must.
func TestReadAheadNeverFailsOnUnconsumedPage(t *testing.T) {
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(fmt.Sprintf("%s/recycled-slot", mode), func(t *testing.T) {
			// run rebuilds the same log, makes the named page of its tail
			// file unreadable ("" = none) and recovers through a reopened log.
			run := func(corrupt string) (got recovered, err error) {
				r := newRig()
				defer r.env.Shutdown()
				l, f, inside, past := recycledSlotLog(t, r, mode)
				if tail := int(l.AppendOff() % l.fileBytes); past >= readAheadPages || past*l.ps < tail || (inside+1)*l.ps > tail {
					t.Fatalf("tail at local %d: page %d is not inside the log or page %d not past it in the first run", tail, inside, past)
				}
				switch corrupt {
				case "inside":
					r.corruptFilePage(t, f, inside)
				case "past":
					r.corruptFilePage(t, f, past)
				}
				rl, oerr := Open(r.env, l.cfg)
				if oerr != nil {
					t.Fatalf("reopen: %v", oerr)
				}
				r.env.Go("recover", func(p *sim.Proc) {
					err = rl.Recover(p, func(lsn LSN, payload []byte) error {
						got.payloads = append(got.payloads, string(payload))
						got.lsns = append(got.lsns, lsn)
						return nil
					})
				})
				r.env.Run()
				got.tail, got.repair = rl.AppendOff(), rl.Repair()
				return got, err
			}
			want, err := run("")
			if err != nil || len(want.payloads) == 0 {
				t.Fatalf("intact log: %d records, err %v", len(want.payloads), err)
			}
			got, err := run("past")
			if err != nil {
				t.Fatalf("unreadable page past the tail failed Recover: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("unreadable page past the tail changed recovery:\n got %d records, tail %d, repair %+v\nwant %d records, tail %d, repair %+v",
					len(got.payloads), got.tail, got.repair, len(want.payloads), want.tail, want.repair)
			}
			if _, err := run("inside"); !errors.Is(err, integrity.ErrPageCorrupt) {
				t.Fatalf("unreadable page inside the log: err = %v, want ErrPageCorrupt", err)
			}
		})
	}
}

// TestRecoverReadAmplification ratchets what recovery costs the drive:
// 4 096 records of 100 B are read back in about one command per 64
// pages — each media page once — and in Sync mode the stage image comes
// out of the same bytes.
func TestRecoverReadAmplification(t *testing.T) {
	const records, recBytes = 4096, 100
	for _, ring := range []int{1, 4} {
		t.Run(fmt.Sprintf("ring%d", ring), func(t *testing.T) {
			r := newRig()
			defer r.env.Shutdown()
			ps := int64(r.fs.PageSize())
			cfg := Config{Mode: Sync}
			if ring == 1 {
				f, err := r.fs.Create("log", 128*ps)
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				cfg.File, cfg.SegmentBytes = f, int(128*ps)
			} else {
				cfg.FS, cfg.Name, cfg.Ring = r.fs, "seg", ring
				cfg.SegmentFileBytes, cfg.SegmentBytes = 40*ps, int(40*ps)
			}
			l, err := Open(r.env, cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			r.env.Go("write", func(p *sim.Proc) {
				var last LSN
				for i := 0; i < records; i++ {
					if last, err = l.Append(p, bytes.Repeat([]byte{byte(i) | 1}, recBytes)); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				if err := l.Commit(p, last); err != nil {
					t.Fatalf("commit: %v", err)
				}
				r.settle(t, p, l)
			})
			r.env.Run()

			rl, err := Open(r.env, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			name := r.ssd.Device().Profile().Name
			cmds0, pages0 := r.count(name+".read_cmds"), r.count(name+".pages_read")
			var took sim.Duration
			n := 0
			r.env.Go("recover", func(p *sim.Proc) {
				t0 := r.env.Now()
				if err := rl.Recover(p, func(LSN, []byte) error { n++; return nil }); err != nil {
					t.Fatalf("recover: %v", err)
				}
				took = sim.Duration(r.env.Now() - t0)
			})
			r.env.Run()
			cmds, pages := r.count(name+".read_cmds")-cmds0, r.count(name+".pages_read")-pages0
			if n != records {
				t.Fatalf("recovered %d records, want %d", n, records)
			}

			// What the log occupies: every walked segment but the last is
			// full, and a ring also reads its meta page and probes each slot.
			_, cur := rl.Segments()
			local := rl.AppendOff() - cur*rl.fileBytes
			tailPages := uint64(cur*rl.fileBytes/ps + (local+ps-1)/ps)
			walked := uint64(cur + 1)
			maxCmds := (tailPages + readAheadPages - 1) / readAheadPages
			if ring > 1 {
				maxCmds += uint64(ring) + 2 // a probe per slot, the meta page, a short run at a segment's end
			}
			t.Logf("%d-page log over %d segments: %d read commands, %d pages read, %v", tailPages, walked, cmds, pages, took)
			if cmds > maxCmds {
				t.Errorf("recovery issued %d read commands for a %d-page log, want <= %d", cmds, tailPages, maxCmds)
			}
			if maxPages := tailPages + readAheadPages*walked; pages > maxPages {
				t.Errorf("recovery read %d pages of a %d-page log over %d segments, want <= %d", pages, tailPages, walked, maxPages)
			}
			if took >= 2*sim.Millisecond {
				t.Errorf("recovery took %v of virtual time, want < 2ms", took)
			}

			media := make([]byte, local)
			r.env.Go("media", func(p *sim.Proc) {
				if err := rl.file(cur).ReadAt(p, 0, media); err != nil {
					t.Fatalf("read media: %v", err)
				}
			})
			r.env.Run()
			if !bytes.Equal(rl.stage[:local], media) {
				t.Errorf("stage image differs from the %d-byte media prefix of segment %d", local, cur)
			}
		})
	}
}
