package wal

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

// rig bundles a small simulated stack for WAL tests.
type rig struct {
	env *sim.Env
	ssd *core.TwoBSSD
	fs  *vfs.FS
}

func newRig() *rig {
	e := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 64 * 4096 // 64-page BA-buffer
	ssd := core.New(e, cfg)
	return &rig{env: e, ssd: ssd, fs: vfs.New(ssd.Device())}
}

// count reads a registry series by name and fails the test when no
// component registered it: Registry.Counter would create the name and
// read 0, so a misspelled name would pass an "== 0" check vacuously.
func (r *rig) count(t testing.TB, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(r.env).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

// histo reads one of the env's "wal.*" latency histograms.
func (r *rig) histo(name string) *histo.H { return obs.Of(r.env).Registry().Histo(name) }

// powerCycle cuts the power and restores it. A short or torn capacitor
// dump is a modeled outcome, not a harness error.
func (r *rig) powerCycle(t testing.TB, p *sim.Proc) {
	t.Helper()
	if _, err := r.ssd.PowerLoss(p); err != nil &&
		!errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		t.Fatalf("power loss: %v", err)
	}
	if err := r.ssd.PowerOn(p); err != nil {
		t.Fatalf("power on: %v", err)
	}
}

// appendCommit appends one record and commits it.
func appendCommit(p *sim.Proc, l *Log, payload string) (LSN, error) {
	lsn, err := l.Append(p, []byte(payload))
	if err == nil {
		err = l.Commit(p, lsn)
	}
	return lsn, err
}

// recoverAll runs l.Recover on a fresh proc and returns every replayed
// payload with its LSN.
func (r *rig) recoverAll(t testing.TB, l *Log) (payloads []string, lsns []LSN) {
	t.Helper()
	r.env.Go("recover", func(p *sim.Proc) {
		if err := l.Recover(p, func(lsn LSN, payload []byte) error {
			payloads = append(payloads, string(payload))
			lsns = append(lsns, lsn)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
	r.env.Run()
	return payloads, lsns
}

// openLog creates a fresh file + log (a ring of one) in the given mode.
func (r *rig) openLog(t *testing.T, name string, mode CommitMode) *Log {
	t.Helper()
	segBytes := 16 * 4096 // quarter of the BA-buffer per half
	f, err := r.fs.Create(name, int64(8*segBytes))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cfg := Config{
		Mode:         mode,
		File:         f,
		SegmentBytes: segBytes,
		SSD:          r.ssd,
		EIDs:         []core.EID{0, 1},
		BufferOffset: 0,
	}
	l, err := Open(r.env, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestOpenValidation(t *testing.T) {
	r := newRig()
	if _, err := Open(r.env, Config{Mode: Sync}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil file: err = %v", err)
	}
	f, _ := r.fs.Create("f", 1<<20)
	if _, err := Open(r.env, Config{Mode: BA, File: f}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("BA without SSD: err = %v", err)
	}
	if _, err := Open(r.env, Config{Mode: BA, File: f, SSD: r.ssd, SegmentBytes: 4096}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("BA without EIDs: err = %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Sync.String() != "SYNC" || Async.String() != "ASYNC" || BA.String() != "BA" {
		t.Fatal("mode strings wrong")
	}
	if CommitMode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func appendCommitRecover(t *testing.T, mode CommitMode) {
	r := newRig()
	l := r.openLog(t, "log", mode)
	var want [][]byte
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			payload := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i%60)))
			want = append(want, payload)
			lsn, err := l.Append(p, payload)
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if err := l.FlushToNAND(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	r.env.Run()

	// Recover with a fresh Log over the same file.
	l2, err := Open(r.env, Config{
		Mode: mode, File: l.cfg.File, SegmentBytes: l.cfg.SegmentBytes,
		SSD: r.ssd, EIDs: []core.EID{0, 1},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var got [][]byte
	r.env.Go("rec", func(p *sim.Proc) {
		if err := l2.Recover(p, func(_ LSN, payload []byte) error {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			got = append(got, cp)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
	r.env.Run()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if l2.AppendOff() != l.AppendOff() {
		t.Fatalf("append offset %d != %d", l2.AppendOff(), l.AppendOff())
	}
}

func TestAppendCommitRecoverSync(t *testing.T)  { appendCommitRecover(t, Sync) }
func TestAppendCommitRecoverAsync(t *testing.T) { appendCommitRecover(t, Async) }
func TestAppendCommitRecoverBA(t *testing.T)    { appendCommitRecover(t, BA) }

func TestBACommitFasterThanSync(t *testing.T) {
	// The core quantitative claim (Section V-C: up to 26x): a BA commit
	// costs ~1 µs while a block commit costs >= the device write+flush.
	measure := func(mode CommitMode) sim.Duration {
		r := newRig()
		l := r.openLog(t, "log", mode)
		r.env.Go("t", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				lsn, err := l.Append(p, bytes.Repeat([]byte{1}, 128))
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				if err := l.Commit(p, lsn); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
		})
		r.env.Run()
		return r.histo("wal.commit_ns").Mean()
	}
	ba, syn := measure(BA), measure(Sync)
	if ba >= syn {
		t.Fatalf("BA commit %v not faster than sync %v", ba, syn)
	}
	ratio := float64(syn) / float64(ba)
	if ratio < 5 {
		t.Fatalf("sync/BA commit ratio = %.1f, want >= 5 (paper: up to 26x)", ratio)
	}
}

func TestAsyncCommitIsImmediate(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", Async)
	r.env.Go("t", func(p *sim.Proc) {
		lsn, _ := l.Append(p, []byte("x"))
		start := r.env.Now()
		l.Commit(p, lsn)
		if r.env.Now() != start {
			t.Error("async commit took time")
		}
		if l.DurableOff() != 0 {
			t.Error("async commit claimed durability")
		}
	})
	r.env.Run() // background flush fires before Run drains
	if l.DurableOff() == 0 {
		t.Fatal("async background flush never ran")
	}
}

func TestGroupCommitSharesFlush(t *testing.T) {
	// N concurrent committers must produce far fewer than N fsyncs.
	r := newRig()
	l := r.openLog(t, "log", Sync)
	const n = 16
	for i := 0; i < n; i++ {
		r.env.Go("client", func(p *sim.Proc) {
			lsn, err := l.Append(p, bytes.Repeat([]byte{2}, 64))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Errorf("commit: %v", err)
			}
		})
	}
	r.env.Run()
	if f := r.count(t, "wal.flushes"); f >= n/2 {
		t.Fatalf("flushes = %d for %d clients; group commit broken", f, n)
	}
	if l.DurableOff() != l.AppendOff() {
		t.Fatal("not all records durable")
	}
}

func TestSegmentRolloverAndPadding(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", BA)
	seg := l.cfg.SegmentBytes
	recPayload := seg/2 - headerBytes - 100 // two won't fit in one segment
	var lsns []LSN
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			lsn, err := l.Append(p, bytes.Repeat([]byte{byte(i + 1)}, recPayload))
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			lsns = append(lsns, lsn)
		}
		l.FlushToNAND(p)
	})
	r.env.Run()
	if r.count(t, "wal.pad_bytes") == 0 {
		t.Fatal("expected padding at segment boundaries")
	}
	// All records must survive recovery across the padding.
	l2, _ := Open(r.env, Config{Mode: BA, File: l.cfg.File, SegmentBytes: seg,
		SSD: r.ssd, EIDs: []core.EID{0, 1}})
	count := 0
	r.env.Go("rec", func(p *sim.Proc) {
		l2.Recover(p, func(_ LSN, payload []byte) error {
			count++
			return nil
		})
	})
	r.env.Run()
	if count != 6 {
		t.Fatalf("recovered %d records, want 6", count)
	}
}

// An empty record is refused: its zero length field is the scanner's
// clean end-of-log marker, so recovery would stop at it and lose every
// acknowledged record after it.
func TestEmptyRecordRefused(t *testing.T) {
	for _, mode := range []CommitMode{Sync, BA} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig()
			l := r.openLog(t, "log", mode)
			r.env.Go("t", func(p *sim.Proc) {
				for _, rec := range []string{"a", "", "b", "c"} {
					_, err := appendCommit(p, l, rec)
					if rec == "" && !errors.Is(err, ErrEmptyRecord) || rec != "" && err != nil {
						t.Fatalf("append %q: %v", rec, err)
					}
				}
				if err := l.FlushToNAND(p); err != nil {
					t.Fatalf("flush: %v", err)
				}
			})
			r.env.Run()
			l2, err := Open(r.env, l.cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			got, _ := r.recoverAll(t, l2)
			if !slices.Equal(got, []string{"a", "b", "c"}) {
				t.Fatalf("recovered %q, want [a b c]", got)
			}
			if l2.AppendOff() != l.AppendOff() {
				t.Fatalf("append offset %d, want %d", l2.AppendOff(), l.AppendOff())
			}
		})
	}
}

func TestRecordTooLarge(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", BA)
	r.env.Go("t", func(p *sim.Proc) {
		if _, err := l.Append(p, make([]byte, l.cfg.SegmentBytes)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v", err)
		}
	})
	r.env.Run()
}

func TestLogFull(t *testing.T) {
	r := newRig()
	seg := 4 * 4096
	f, _ := r.fs.Create("small", int64(seg))
	l, err := Open(r.env, Config{Mode: Sync, File: f, SegmentBytes: seg})
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("t", func(p *sim.Proc) {
		payload := make([]byte, 4000)
		sawFull := false
		for i := 0; i < 10; i++ {
			if _, err := l.Append(p, payload); errors.Is(err, ErrLogFull) {
				sawFull = true
				break
			}
		}
		if !sawFull {
			t.Error("never hit ErrLogFull")
		}
		// A single file is write-once: nothing truncates it.
		if err := l.Checkpoint(p, LSN(l.AppendOff())); !errors.Is(err, ErrBadConfig) {
			t.Errorf("checkpoint on a single file: err = %v, want ErrBadConfig", err)
		}
	})
	r.env.Run()
}

func TestBAWALSurvivesPowerLoss(t *testing.T) {
	// The paper's headline guarantee: BA-committed transactions survive
	// a crash with no risk of data loss.
	r := newRig()
	l := r.openLog(t, "log", BA)
	var committed [][]byte
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			payload := []byte(fmt.Sprintf("txn-%02d", i))
			lsn, err := l.Append(p, payload)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed = append(committed, payload)
		}
		// One more record appended but NOT committed: may be lost.
		l.Append(p, []byte("uncommitted"))

		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
	})
	r.env.Run()

	l2, _ := Open(r.env, Config{Mode: BA, File: l.cfg.File, SegmentBytes: l.cfg.SegmentBytes,
		SSD: r.ssd, EIDs: []core.EID{0, 1}})
	var got [][]byte
	r.env.Go("rec", func(p *sim.Proc) {
		if err := l2.Recover(p, func(_ LSN, payload []byte) error {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			got = append(got, cp)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
	r.env.Run()
	if len(got) < len(committed) {
		t.Fatalf("lost committed records: got %d, committed %d", len(got), len(committed))
	}
	for i, w := range committed {
		if !bytes.Equal(got[i], w) {
			t.Fatalf("record %d corrupted: %q", i, got[i])
		}
	}
}

func TestBAWALDoubleBufferingParallelism(t *testing.T) {
	// With double buffering, appends into the next segment overlap the
	// flush of the previous one; single buffering stalls. Fill several
	// segments and compare total time.
	fill := func(eids ...core.EID) sim.Duration {
		r := newRig()
		seg := 16 * 4096
		f, _ := r.fs.Create("log", int64(8*seg))
		l, err := Open(r.env, Config{Mode: BA, File: f, SegmentBytes: seg,
			SSD: r.ssd, EIDs: eids})
		if err != nil {
			t.Fatal(err)
		}
		r.env.Go("t", func(p *sim.Proc) {
			payload := make([]byte, 2048)
			for i := 0; i < 120; i++ { // ~4 segments
				lsn, err := l.Append(p, payload)
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				l.Commit(p, lsn)
			}
		})
		r.env.Run()
		return sim.Duration(r.env.Now())
	}
	d, s := fill(0, 1), fill(0)
	if d >= s {
		t.Fatalf("double buffering (%v) not faster than single (%v)", d, s)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", Sync)
	r.env.Go("t", func(p *sim.Proc) {
		lsn, _ := l.Append(p, []byte("abc"))
		l.Commit(p, lsn)
	})
	r.env.Run()
	if a, c, f := r.count(t, "wal.appends"), r.count(t, "wal.commits"), r.count(t, "wal.flushes"); a != 1 || c != 1 || f == 0 {
		t.Fatalf("appends=%d commits=%d flushes=%d", a, c, f)
	}
	if b := r.count(t, "wal.bytes_appended"); b != uint64(3+headerBytes) {
		t.Fatalf("bytes = %d", b)
	}
	if r.histo("wal.commit_ns").Mean() <= 0 {
		t.Fatal("no commit time recorded")
	}
}

func TestTornRecordStopsRecovery(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", Sync)
	r.env.Go("t", func(p *sim.Proc) {
		lsn, _ := l.Append(p, []byte("good"))
		l.Commit(p, lsn)
		l.Append(p, []byte("never-committed"))
		// Simulate a torn tail: flush only happened for the first.
	})
	r.env.Run()
	l2, _ := Open(r.env, Config{Mode: Sync, File: l.cfg.File, SegmentBytes: l.cfg.SegmentBytes})
	var got []string
	r.env.Go("rec", func(p *sim.Proc) {
		l2.Recover(p, func(_ LSN, payload []byte) error {
			got = append(got, string(payload))
			return nil
		})
	})
	r.env.Run()
	if len(got) != 1 || got[0] != "good" {
		t.Fatalf("recovered %v, want [good]", got)
	}
}

// Property: with any number of concurrent appenders, every committed
// record survives recovery intact and exactly once.
func TestPropertyConcurrentAppendersRecoverable(t *testing.T) {
	for _, clients := range []int{2, 5, 9} {
		for _, mode := range []CommitMode{Sync, BA} {
			r := newRig()
			l := r.openLog(t, "log", mode)
			type rec struct{ c, i int }
			committed := make(map[string]bool)
			for c := 0; c < clients; c++ {
				c := c
				r.env.Go("client", func(p *sim.Proc) {
					for i := 0; i < 12; i++ {
						payload := []byte(fmt.Sprintf("c%d-i%d", c, i))
						lsn, err := l.Append(p, payload)
						if err != nil {
							t.Errorf("append: %v", err)
							return
						}
						if err := l.Commit(p, lsn); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
						committed[string(payload)] = true
					}
				})
			}
			r.env.Run()
			r.env.Go("finish", func(p *sim.Proc) {
				if err := l.FlushToNAND(p); err != nil {
					t.Errorf("flush: %v", err)
				}
			})
			r.env.Run()

			l2, err := Open(r.env, Config{Mode: mode, File: l.cfg.File,
				SegmentBytes: l.cfg.SegmentBytes, SSD: r.ssd,
				EIDs: []core.EID{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]int)
			r.env.Go("rec", func(p *sim.Proc) {
				l2.Recover(p, func(_ LSN, payload []byte) error {
					seen[string(payload)]++
					return nil
				})
			})
			r.env.Run()
			if len(seen) != len(committed) {
				t.Fatalf("mode=%v clients=%d: recovered %d of %d records",
					mode, clients, len(seen), len(committed))
			}
			for k, n := range seen {
				if n != 1 || !committed[k] {
					t.Fatalf("mode=%v: record %q seen %d times (committed=%v)",
						mode, k, n, committed[k])
				}
			}
		}
	}
}

// The entries given decide the buffer halves used: there is no separate
// double-buffering switch to keep in step with them.
func TestBufferHalvesDerivedFromEIDs(t *testing.T) {
	r := newRig()
	seg := 16 * 4096
	for _, tc := range []struct {
		eids   []core.EID
		halves int
	}{
		{[]core.EID{3}, 1},
		{[]core.EID{0, 1}, 2},
		{[]core.EID{0, 1, 2, 3}, 2},
	} {
		f, _ := r.fs.Create(fmt.Sprintf("log%d", len(tc.eids)), int64(8*seg))
		for _, mode := range []CommitMode{BA, PMR} {
			l, err := Open(r.env, Config{Mode: mode, File: f, SegmentBytes: seg, SSD: r.ssd, EIDs: tc.eids})
			if err != nil {
				t.Fatalf("%v EIDs %v: %v", mode, tc.eids, err)
			}
			if len(l.halves) != tc.halves {
				t.Errorf("%v EIDs %v: %d halves, want %d", mode, tc.eids, len(l.halves), tc.halves)
			}
			for i, h := range l.halves {
				if h.eid != tc.eids[i] || h.bufOff != i*seg {
					t.Errorf("%v EIDs %v: half %d on entry %d at %d", mode, tc.eids, i, h.eid, h.bufOff)
				}
			}
			// Rebind may not shrink the log below the halves it was opened with.
			if err := l.Rebind(tc.eids[:tc.halves-1], 0); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%v EIDs %v: Rebind onto %d entries = %v, want ErrBadConfig", mode, tc.eids, tc.halves-1, err)
			}
			if err := l.Rebind(tc.eids, 0); err != nil {
				t.Errorf("%v EIDs %v: Rebind onto the same entries: %v", mode, tc.eids, err)
			}
		}
	}
	f, _ := r.fs.Create("none", int64(8*seg))
	if _, err := Open(r.env, Config{Mode: BA, File: f, SegmentBytes: seg, SSD: r.ssd}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("BA with no entries = %v, want ErrBadConfig", err)
	}
}

// Property: recovery over an arbitrarily corrupted log file never
// panics and yields a prefix of the committed records.
func TestPropertyRecoveryToleratesCorruption(t *testing.T) {
	base := func() (*rig, *Log, [][]byte) {
		r := newRig()
		l := r.openLog(t, "log", Sync)
		var records [][]byte
		r.env.Go("t", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				payload := []byte(fmt.Sprintf("record-%02d", i))
				records = append(records, payload)
				lsn, _ := l.Append(p, payload)
				l.Commit(p, lsn)
			}
		})
		r.env.Run()
		return r, l, records
	}
	prop := func(offRaw uint16, val byte) bool {
		r, l, records := base()
		// Corrupt one byte somewhere in the written region.
		ok := true
		r.env.Go("corrupt", func(p *sim.Proc) {
			end := l.AppendOff()
			off := int64(offRaw) % end
			buf := make([]byte, 1)
			if err := l.cfg.File.ReadAt(p, off, buf); err != nil {
				ok = false
				return
			}
			buf[0] ^= val | 1 // guarantee a change
			if err := l.cfg.File.WriteAt(p, off, buf); err != nil {
				ok = false
				return
			}
			l2, err := Open(r.env, Config{Mode: Sync, File: l.cfg.File,
				SegmentBytes: l.cfg.SegmentBytes})
			if err != nil {
				ok = false
				return
			}
			i := 0
			err = l2.Recover(p, func(_ LSN, payload []byte) error {
				// Every recovered record must be an exact prefix match.
				if i >= len(records) || !bytes.Equal(payload, records[i]) {
					ok = false
				}
				i++
				return nil
			})
			if err != nil {
				ok = false
			}
		})
		r.env.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRebindMovesWindow drives the fleet QoS lease pattern: commit a
// batch, flush, Rebind onto different mapping-table entries and a
// different BA-buffer window, commit more — every record from every
// lease must recover from media, in order.
func TestRebindMovesWindow(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", BA)
	segBytes := l.cfg.SegmentBytes
	var want []string
	batch := func(p *sim.Proc, lease int) {
		for i := 0; i < 12; i++ {
			payload := fmt.Sprintf("lease-%d-record-%03d", lease, i)
			want = append(want, payload)
			lsn, err := l.Append(p, []byte(payload))
			if err != nil {
				t.Fatalf("lease %d append %d: %v", lease, i, err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("lease %d commit %d: %v", lease, i, err)
			}
		}
	}
	r.env.Go("t", func(p *sim.Proc) {
		batch(p, 0)
		// Rebind on a pinned log must refuse: the window still holds
		// undumped bytes on the old entries.
		if err := l.Rebind([]core.EID{2, 3}, 2*segBytes); !errors.Is(err, ErrBadConfig) {
			t.Errorf("rebind while pinned: err = %v, want ErrBadConfig", err)
		}
		if err := l.FlushToNAND(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := l.Rebind([]core.EID{2, 3}, 2*segBytes); err != nil {
			t.Fatalf("rebind: %v", err)
		}
		batch(p, 1)
		if err := l.FlushToNAND(p); err != nil {
			t.Fatalf("flush 2: %v", err)
		}
		// Too few entries for a double-buffered log must refuse.
		if err := l.Rebind([]core.EID{1}, 0); !errors.Is(err, ErrBadConfig) {
			t.Errorf("rebind with 1 EID: err = %v, want ErrBadConfig", err)
		}
		// And back onto the original window for a third lease.
		if err := l.Rebind([]core.EID{0, 1}, 0); err != nil {
			t.Fatalf("rebind back: %v", err)
		}
		batch(p, 2)
		if err := l.FlushToNAND(p); err != nil {
			t.Fatalf("flush 3: %v", err)
		}
		var got []string
		err := l.Recover(p, func(_ LSN, payload []byte) error {
			got = append(got, string(payload))
			return nil
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("recovered %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: %q, want %q", i, got[i], want[i])
			}
		}
	})
	r.env.Run()
	r.env.Shutdown()
}

// Rebind is a byte-path concept; block-mode logs must refuse it.
func TestRebindRejectsBlockModes(t *testing.T) {
	r := newRig()
	l := r.openLog(t, "log", Sync)
	if err := l.Rebind([]core.EID{2, 3}, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("rebind on SYNC log: err = %v, want ErrBadConfig", err)
	}
	r.env.Shutdown()
}
