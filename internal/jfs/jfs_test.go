package jfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

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
	cfg.Base.Nand.BlocksPerDie = 128
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.1
	cfg.Base.WriteBufferPages = 128
	cfg.Base.DrainWorkers = 8
	cfg.BABufferBytes = 128 * 4096
	ssd := core.New(e, cfg)
	return &rig{env: e, ssd: ssd, fs: vfs.New(ssd.Device())}
}

// open creates the home file on first use and opens (or, after a crash,
// reopens) the store: a 2 MB journal ring whose files are the two
// double-buffered halves of the BA-buffer.
func (r *rig) open(t *testing.T, mode wal.CommitMode) (*Store, Config) {
	t.Helper()
	var home *vfs.File
	var err error
	if r.fs.Exists("home") {
		home, err = r.fs.Open("home")
	} else {
		home, err = r.fs.Create("home", 256*BlockSize)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Home: home, Log: wal.Config{Mode: mode, FS: r.fs, Ring: 4, SegmentFileBytes: 512 << 10,
		SSD: r.ssd, EIDs: []core.EID{0, 1}, SegmentBytes: 64 * 4096}}
	var s *Store
	r.env.Go("open", func(p *sim.Proc) {
		s, err = Open(r.env, p, cfg)
		if err != nil {
			t.Errorf("open: %v", err)
		}
	})
	r.env.Run()
	if s == nil {
		t.Fatal("open failed")
	}
	return s, cfg
}

// counter reads a registry series by name and fails the test when no
// component registered it: Registry.Counter would create the name and
// read 0, so a misspelled name would pass an "== 0" check vacuously.
func counter(t testing.TB, e *sim.Env, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

// The store counts into the environment's "jfs.*" series: two
// transactions of three blocks, a checkpoint, and — on a remount after
// one more transaction — one replayed record.
func TestCountersAreRegistrySeries(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.Sync)
	r.env.Go("t", func(p *sim.Proc) {
		for i, blocks := range [][]uint32{{1, 2}, {3}, {4}} {
			tx := s.Begin()
			for _, blk := range blocks {
				tx.WriteBlock(blk, versioned(blk, i))
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			if i == 1 {
				if err := s.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
	})
	r.env.Run()
	r.open(t, wal.Sync)
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"jfs.txns", 3}, {"jfs.blocks_in_txn", 4}, {"jfs.checkpoints", 1}, {"jfs.replayed", 1},
	} {
		if got := counter(t, r.env, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func testWriteRead(t *testing.T, mode wal.CommitMode) {
	r := newRig()
	s, _ := r.open(t, mode)
	r.env.Go("t", func(p *sim.Proc) {
		tx := s.Begin()
		tx.WriteBlock(3, []byte("inode table v1"))
		tx.WriteBlock(7, []byte("bitmap v1"))
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		got, err := s.ReadBlock(p, 3)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.HasPrefix(got, []byte("inode table v1")) {
			t.Errorf("block 3 = %q", got[:20])
		}
		// Overwrite in a later transaction.
		tx2 := s.Begin()
		tx2.WriteBlock(3, []byte("inode table v2"))
		if err := tx2.Commit(p); err != nil {
			t.Fatal(err)
		}
		got, _ = s.ReadBlock(p, 3)
		if !bytes.HasPrefix(got, []byte("inode table v2")) {
			t.Errorf("block 3 after overwrite = %q", got[:20])
		}
	})
	r.env.Run()
}

func TestWriteReadBlockMode(t *testing.T) { testWriteRead(t, wal.Sync) }
func TestWriteReadBAMode(t *testing.T)    { testWriteRead(t, wal.BA) }

func TestEmptyTxnIsNoop(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.Sync)
	r.env.Go("t", func(p *sim.Proc) {
		if err := s.Begin().Commit(p); err != nil {
			t.Fatalf("empty commit: %v", err)
		}
	})
	r.env.Run()
	if counter(t, r.env, "jfs.txns") != 0 {
		t.Fatal("empty txn counted")
	}
}

func TestOutOfRangeBlock(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.Sync)
	tx := s.Begin()
	if err := tx.WriteBlock(s.Blocks(), []byte("x")); !errors.Is(err, ErrOutOfHome) {
		t.Fatalf("err = %v", err)
	}
	r.env.Go("t", func(p *sim.Proc) {
		if _, err := s.ReadBlock(p, s.Blocks()+1); !errors.Is(err, ErrOutOfHome) {
			t.Errorf("read err = %v", err)
		}
	})
	r.env.Run()
}

func TestCheckpointWritesHome(t *testing.T) {
	r := newRig()
	s, cfg := r.open(t, wal.Sync)
	r.env.Go("t", func(p *sim.Proc) {
		tx := s.Begin()
		tx.WriteBlock(9, []byte("superblock"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		// The home file itself must now hold the block.
		buf := make([]byte, BlockSize)
		if err := cfg.Home.ReadAt(p, 9*BlockSize, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf, []byte("superblock")) {
			t.Errorf("home block = %q", buf[:16])
		}
		// And reads still work after the pending set cleared.
		got, _ := s.ReadBlock(p, 9)
		if !bytes.HasPrefix(got, []byte("superblock")) {
			t.Error("read after checkpoint broken")
		}
	})
	r.env.Run()
	if counter(t, r.env, "jfs.checkpoints") == 0 {
		t.Fatal("no checkpoint counted")
	}
}

func TestAutomaticCheckpointOnPressure(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.Sync)
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			tx := s.Begin()
			tx.WriteBlock(uint32(i%64), []byte(fmt.Sprintf("v%d", i)))
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
	})
	r.env.Run()
	if counter(t, r.env, "jfs.checkpoints") == 0 {
		t.Fatal("no automatic checkpoint")
	}
}

func TestCrashRecoveryReplaysJournal(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.Sync)
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			tx := s.Begin()
			tx.WriteBlock(uint32(i), []byte(fmt.Sprintf("meta-%d", i)))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		// No checkpoint: home file still stale. "Crash" and reopen.
	})
	r.env.Run()
	before := counter(t, r.env, "jfs.replayed")
	s2, _ := r.open(t, wal.Sync)
	if got := counter(t, r.env, "jfs.replayed") - before; got != 10 {
		t.Fatalf("replayed %d txns, want 10", got)
	}
	r.env.Go("verify", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got, err := s2.ReadBlock(p, uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte(fmt.Sprintf("meta-%d", i))) {
				t.Errorf("block %d = %q", i, got[:10])
			}
		}
	})
	r.env.Run()
}

func TestBAJournalSurvivesPowerLoss(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.BA)
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			tx := s.Begin()
			tx.WriteBlock(uint32(10+i), []byte(fmt.Sprintf("journaled-%d", i)))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
	})
	r.env.Run()
	s2, _ := r.open(t, wal.BA)
	r.env.Go("verify", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			got, err := s2.ReadBlock(p, uint32(10+i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte(fmt.Sprintf("journaled-%d", i))) {
				t.Errorf("block %d lost after power cycle: %q", 10+i, got[:12])
			}
		}
	})
	r.env.Run()
}

func TestBACommitFasterForJournal(t *testing.T) {
	measure := func(mode wal.CommitMode) sim.Duration {
		r := newRig()
		s, _ := r.open(t, mode)
		var took sim.Duration
		r.env.Go("t", func(p *sim.Proc) {
			// Warm up (first BA append pays the segment pin).
			w := s.Begin()
			w.WriteBlock(0, []byte("warm"))
			w.Commit(p)
			start := r.env.Now()
			for i := 0; i < 20; i++ {
				tx := s.Begin()
				tx.WriteBlock(uint32(1+i%32), []byte("m"))
				if err := tx.Commit(p); err != nil {
					t.Fatal(err)
				}
			}
			took = sim.Duration(r.env.Now()-start) / 20
		})
		r.env.Run()
		return took
	}
	ba, blk := measure(wal.BA), measure(wal.Sync)
	if ba >= blk {
		t.Fatalf("BA journal commit %v not faster than block %v", ba, blk)
	}
}

func TestRandomizedJournalConsistency(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.BA)
	rng := rand.New(rand.NewSource(11))
	shadow := make(map[uint32]string)
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 150; i++ {
			tx := s.Begin()
			n := 1 + rng.Intn(4)
			for j := 0; j < n; j++ {
				blk := uint32(rng.Intn(64))
				v := fmt.Sprintf("txn%d-%d", i, j)
				tx.WriteBlock(blk, []byte(v))
				shadow[blk] = v
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		for blk, want := range shadow {
			got, err := s.ReadBlock(p, blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte(want)) {
				t.Errorf("block %d = %q, want %q", blk, got[:16], want)
			}
		}
	})
	r.env.Run()
}

// versioned is block blk's content at version v.
func versioned(blk uint32, v int) []byte {
	return []byte(fmt.Sprintf("block-%d version-%04d", blk, v))
}

// TestBACheckpointThenPowerLoss: at the default CheckpointEvery, 64
// single-block transactions over 8 blocks end in a checkpoint; three
// more are acknowledged and power is cut. The reopened store must
// replay those three and nothing else — the 64 checkpointed records
// still sit in the journal's BA window, and replaying them would put
// blocks 0-2 back to their pre-checkpoint versions.
func TestBACheckpointThenPowerLoss(t *testing.T) {
	r := newRig()
	s, _ := r.open(t, wal.BA)
	want := map[uint32][]byte{}
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 64+3; i++ {
			blk := uint32(i % 8)
			want[blk] = versioned(blk, i)
			tx := s.Begin()
			tx.WriteBlock(blk, want[blk])
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if n := counter(t, r.env, "jfs.checkpoints"); n != 1 {
			t.Fatalf("checkpoints = %d, want the one after txn 64", n)
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
	})
	r.env.Run()
	before := counter(t, r.env, "jfs.replayed")
	s2, _ := r.open(t, wal.BA)
	if got := counter(t, r.env, "jfs.replayed") - before; got != 3 {
		t.Errorf("replayed %d journal records, want the 3 past the checkpoint", got)
	}
	r.env.Go("verify", func(p *sim.Proc) {
		for blk := uint32(0); blk < 8; blk++ {
			got, err := s2.ReadBlock(p, blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, want[blk]) {
				t.Errorf("block %d = %q, want its last acknowledged version %q", blk, got[:len(want[blk])], want[blk])
			}
		}
	})
	r.env.Run()
}

// TestCheckpointRunsAreDeterministic: multi-block transactions through
// two checkpoints must leave the same journal and home bytes at the same
// virtual time on every run — neither the record encoding nor the
// write-back may follow Go's map order.
func TestCheckpointRunsAreDeterministic(t *testing.T) {
	run := func() string {
		r := newRig()
		s, cfg := r.open(t, wal.BA)
		s.cfg.CheckpointEvery = 8
		crc := crc32.NewIEEE()
		r.env.Go("t", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				tx := s.Begin()
				for j := 0; j < 5; j++ {
					blk := uint32((i*7 + j*13) % 64)
					tx.WriteBlock(blk, versioned(blk, i))
				}
				if err := tx.Commit(p); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			if err := s.log.FlushToNAND(p); err != nil {
				t.Fatalf("flush: %v", err)
			}
			files := []*vfs.File{cfg.Home}
			for i := 0; i < cfg.Log.Ring; i++ {
				f, err := r.fs.Open(fmt.Sprintf("%s.%d", journalName, i))
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			for _, f := range files {
				buf := make([]byte, f.Capacity())
				if err := f.ReadAt(p, 0, buf); err != nil {
					t.Fatalf("read %s: %v", f.Name(), err)
				}
				crc.Write(buf)
			}
		})
		r.env.Run()
		if n := counter(t, r.env, "jfs.checkpoints"); n != 2 {
			t.Fatalf("checkpoints = %d, want 2", n)
		}
		return fmt.Sprintf("end=%d media=%08x", r.env.Now(), crc.Sum32())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs differ:\n  %s\n  %s", a, b)
	}
}
