package jfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"twobssd/internal/core"
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

func (r *rig) open(t *testing.T, mode wal.CommitMode) (*Store, Config) {
	t.Helper()
	var home, journal *vfs.File
	var err error
	if r.fs.Exists("home") {
		home, _ = r.fs.Open("home")
		journal, _ = r.fs.Open("journal")
	} else {
		home, err = r.fs.Create("home", 256*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		journal, err = r.fs.Create("journal", 2<<20)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Home: home, Log: wal.Config{Mode: mode, File: journal,
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
	if s.Stats().Txns != 0 {
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
	if s.Stats().Checkpoints == 0 {
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
	if s.Stats().Checkpoints == 0 {
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
	s2, _ := r.open(t, wal.Sync)
	if s2.Stats().Replayed != 10 {
		t.Fatalf("replayed %d txns, want 10", s2.Stats().Replayed)
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
