package pglite

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// ---- B-tree unit tests ----

func TestBTreeBasic(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 1000; i++ {
		bt.Put([]byte(fmt.Sprintf("k%06d", i)), rid{page: int32(i), slot: int16(i % 100)})
	}
	if bt.Len() != 1000 {
		t.Fatalf("len = %d", bt.Len())
	}
	for i := 0; i < 1000; i++ {
		r, ok := bt.Get([]byte(fmt.Sprintf("k%06d", i)))
		if !ok || r.page != int32(i) {
			t.Fatalf("get %d: %v %v", i, r, ok)
		}
	}
	if _, ok := bt.Get([]byte("nope")); ok {
		t.Fatal("phantom key")
	}
}

func TestBTreeReplace(t *testing.T) {
	bt := newBTree()
	bt.Put([]byte("k"), rid{page: 1})
	bt.Put([]byte("k"), rid{page: 2})
	if bt.Len() != 1 {
		t.Fatalf("len = %d", bt.Len())
	}
	if r, _ := bt.Get([]byte("k")); r.page != 2 {
		t.Fatalf("rid = %v", r)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 200; i++ {
		bt.Put([]byte(fmt.Sprintf("k%03d", i)), rid{page: int32(i)})
	}
	for i := 0; i < 200; i += 2 {
		if !bt.Delete([]byte(fmt.Sprintf("k%03d", i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Delete([]byte("k000")) {
		t.Fatal("double delete succeeded")
	}
	for i := 0; i < 200; i++ {
		_, ok := bt.Get([]byte(fmt.Sprintf("k%03d", i)))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d: ok=%v", i, ok)
		}
	}
}

func TestBTreeAscend(t *testing.T) {
	bt := newBTree()
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(500)
	for _, i := range keys {
		bt.Put([]byte(fmt.Sprintf("k%04d", i)), rid{page: int32(i)})
	}
	var got []string
	bt.Ascend([]byte("k0100"), func(k []byte, r rid) bool {
		got = append(got, string(k))
		return len(got) < 10
	})
	if len(got) != 10 || got[0] != "k0100" || got[9] != "k0109" {
		t.Fatalf("ascend = %v", got)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("ascend out of order")
	}
}

// Property: B-tree matches a sorted map for any insert order.
func TestPropertyBTreeMatchesMap(t *testing.T) {
	prop := func(raw []uint16) bool {
		bt := newBTree()
		shadow := make(map[string]int32)
		for i, r := range raw {
			k := fmt.Sprintf("k%05d", r)
			bt.Put([]byte(k), rid{page: int32(i)})
			shadow[k] = int32(i)
		}
		if bt.Len() != len(shadow) {
			return false
		}
		for k, want := range shadow {
			got, ok := bt.Get([]byte(k))
			if !ok || got.page != want {
				return false
			}
		}
		// Full ascend yields sorted keys.
		var keys []string
		bt.Ascend(nil, func(k []byte, _ rid) bool {
			keys = append(keys, string(k))
			return true
		})
		return sort.StringsAreSorted(keys) && len(keys) == len(shadow)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ---- heap page unit tests ----

func TestHeapPageInsertReadKill(t *testing.T) {
	hp := loadHeapPage(make([]byte, heapPageBytes))
	s1 := hp.insert([]byte("tuple-one"))
	s2 := hp.insert([]byte("tuple-two"))
	if !bytes.Equal(hp.read(s1), []byte("tuple-one")) {
		t.Fatal("read s1")
	}
	hp.kill(s1)
	if hp.read(s1) != nil {
		t.Fatal("dead tuple visible")
	}
	if !bytes.Equal(hp.read(s2), []byte("tuple-two")) {
		t.Fatal("kill damaged neighbour")
	}
	if hp.read(99) != nil {
		t.Fatal("out-of-range slot")
	}
}

func TestHeapPageFillsUp(t *testing.T) {
	hp := loadHeapPage(make([]byte, heapPageBytes))
	tuple := bytes.Repeat([]byte{1}, 100)
	n := 0
	for hp.freeBytes() >= len(tuple) {
		hp.insert(tuple)
		n++
	}
	if n < 30 || n > 40 {
		t.Fatalf("page held %d 100B tuples", n)
	}
}

// ---- engine tests ----

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

// config places a 1 MB XLOG the paper's way — two entries double-
// buffering windows of the BA-buffer, two windows per ring file; the
// block modes use only the segment sizes.
func (r *rig) config(mode wal.CommitMode) Config {
	return r.sized(mode, 256<<10)
}

// sized is config with ring files of fileBytes each.
func (r *rig) sized(mode wal.CommitMode, fileBytes int) Config {
	return Config{
		DataFS: r.fs,
		Log: wal.Config{Mode: mode, FS: r.fs, Ring: 4, SegmentFileBytes: int64(fileBytes),
			SSD: r.ssd, EIDs: []core.EID{0, 1}, SegmentBytes: fileBytes / 2},
		HeapFileBytes: 2 << 20,
	}
}

func TestCommitAndRead(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("node")
		tx := eng.Begin()
		tx.Upsert("node", []byte("n1"), []byte("alice"))
		tx.Upsert("node", []byte("n2"), []byte("bob"))
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		v, ok, err := eng.Begin().Get(p, "node", []byte("n1"))
		if err != nil || !ok || string(v) != "alice" {
			t.Fatalf("get: %q %v %v", v, ok, err)
		}
		// Update in a second transaction.
		tx2 := eng.Begin()
		tx2.Upsert("node", []byte("n1"), []byte("alice2"))
		if err := tx2.Commit(p); err != nil {
			t.Fatal(err)
		}
		v, _, _ = eng.Begin().Get(p, "node", []byte("n1"))
		if string(v) != "alice2" {
			t.Fatalf("updated value = %q", v)
		}
		// Delete.
		tx3 := eng.Begin()
		tx3.Delete("node", []byte("n2"))
		tx3.Commit(p)
		if _, ok, _ := eng.Begin().Get(p, "node", []byte("n2")); ok {
			t.Fatal("deleted row visible")
		}
	})
	r.env.Run()
}

func TestScanRange(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, _ := Open(r.env, p, r.config(wal.Sync))
		eng.CreateTable("link")
		tx := eng.Begin()
		for i := 0; i < 50; i++ {
			tx.Upsert("link", []byte(fmt.Sprintf("n1|%03d", i)), []byte("x"))
		}
		tx.Commit(p)
		keys, values, err := eng.Begin().Scan(p, "link", []byte("n1|010"), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 5 || string(keys[0]) != "n1|010" || string(keys[4]) != "n1|014" {
			t.Fatalf("scan keys = %v", keys)
		}
		if len(values) != 5 {
			t.Fatalf("values = %d", len(values))
		}
	})
	r.env.Run()
}

func TestManyRowsForcePoolEviction(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.BufferPoolPages = 8 // tiny pool: force evictions
		eng, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		val := bytes.Repeat([]byte{7}, 200)
		for i := 0; i < 400; i++ {
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(fmt.Sprintf("k%05d", i)), val)
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		// All rows readable back through the pool.
		for i := 0; i < 400; i += 37 {
			v, ok, err := eng.Begin().Get(p, "tbl", []byte(fmt.Sprintf("k%05d", i)))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
			}
		}
		if eng.tables["tbl"].heap.pool.evicts == 0 {
			t.Error("expected pool evictions")
		}
	})
	r.env.Run()
}

func TestCheckpointTriggeredByLogPressure(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.Sync, 16<<10) // small log to force checkpoints
		eng, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		val := bytes.Repeat([]byte{1}, 500)
		for i := 0; i < 300; i++ {
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(fmt.Sprintf("k%04d", i%50)), val)
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if eng.Stats().Checkpoints == 0 {
			t.Error("no checkpoints despite log pressure")
		}
		// Data intact after checkpoints.
		for i := 0; i < 50; i++ {
			if _, ok, _ := eng.Begin().Get(p, "tbl", []byte(fmt.Sprintf("k%04d", i))); !ok {
				t.Fatalf("row %d lost", i)
			}
		}
	})
	r.env.Run()
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		for i := 0; i < 30; i++ {
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		// Crash without checkpoint: reopen a fresh engine over the same
		// filesystem and replay.
		eng2, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 30; i++ {
			v, ok, err := eng2.Begin().Get(p, "tbl", []byte(fmt.Sprintf("k%02d", i)))
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%02d: %q ok=%v err=%v", i, v, ok, err)
			}
		}
	})
	r.env.Run()
}

func TestBAXlogSurvivesPowerLoss(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		for i := 0; i < 25; i++ {
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
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
		eng2, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 25; i++ {
			v, ok, err := eng2.Begin().Get(p, "tbl", []byte(fmt.Sprintf("k%02d", i)))
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%02d lost after power cycle: %q ok=%v err=%v", i, v, ok, err)
			}
		}
	})
	r.env.Run()
}

func TestConcurrentCommitters(t *testing.T) {
	r := newRig()
	var eng *Engine
	r.env.Go("setup", func(p *sim.Proc) {
		var err error
		eng, err = Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		const clients = 12
		for c := 0; c < clients; c++ {
			c := c
			r.env.Go("client", func(p *sim.Proc) {
				for i := 0; i < 30; i++ {
					tx := eng.Begin()
					tx.Upsert("tbl", []byte(fmt.Sprintf("c%d-k%03d", c, i)), []byte("v"))
					if err := tx.Commit(p); err != nil {
						t.Errorf("c%d commit: %v", c, err)
						return
					}
				}
			})
		}
	})
	r.env.Run()
	r.env.Go("verify", func(p *sim.Proc) {
		for c := 0; c < 12; c++ {
			for i := 0; i < 30; i++ {
				k := fmt.Sprintf("c%d-k%03d", c, i)
				if _, ok, err := eng.Begin().Get(p, "tbl", []byte(k)); !ok || err != nil {
					t.Errorf("%s missing", k)
					return
				}
			}
		}
	})
	r.env.Run()
}

// Property: engine equals a map under random upsert/delete, surviving
// a recovery cycle.
func TestPropertyEngineMatchesMapWithRecovery(t *testing.T) {
	prop := func(seed int64) bool {
		r := newRig()
		ok := true
		r.env.Go("t", func(p *sim.Proc) {
			eng, err := Open(r.env, p, r.config(wal.Sync))
			if err != nil {
				ok = false
				return
			}
			eng.CreateTable("t")
			rng := rand.New(rand.NewSource(seed))
			shadow := make(map[string]string)
			for i := 0; i < 150; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(30))
				tx := eng.Begin()
				if rng.Intn(4) == 0 {
					tx.Delete("t", []byte(k))
					delete(shadow, k)
				} else {
					v := fmt.Sprintf("v%d", i)
					tx.Upsert("t", []byte(k), []byte(v))
					shadow[k] = v
				}
				if err := tx.Commit(p); err != nil {
					ok = false
					return
				}
			}
			eng2, err := Open(r.env, p, r.config(wal.Sync))
			if err != nil {
				ok = false
				return
			}
			for k, want := range shadow {
				got, found, err := eng2.Begin().Get(p, "t", []byte(k))
				if err != nil || !found || string(got) != want {
					ok = false
					return
				}
			}
			for i := 0; i < 30; i++ {
				k := fmt.Sprintf("k%02d", i)
				if _, inShadow := shadow[k]; !inShadow {
					if _, found, _ := eng2.Begin().Get(p, "t", []byte(k)); found {
						ok = false
						return
					}
				}
			}
		})
		r.env.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// Differential test: identical transaction traces under every commit
// mode converge to the same table contents.
func TestDifferentialCommitModes(t *testing.T) {
	run := func(mode wal.CommitMode) map[string]string {
		r := newRig()
		state := make(map[string]string)
		r.env.Go("t", func(p *sim.Proc) {
			eng, err := Open(r.env, p, r.config(mode))
			if err != nil {
				t.Error(err)
				return
			}
			eng.CreateTable("t")
			rng := rand.New(rand.NewSource(123))
			for i := 0; i < 200; i++ {
				tx := eng.Begin()
				k := fmt.Sprintf("k%02d", rng.Intn(40))
				if rng.Intn(4) == 0 {
					tx.Delete("t", []byte(k))
				} else {
					tx.Upsert("t", []byte(k), []byte(fmt.Sprintf("v%d", i)))
				}
				if err := tx.Commit(p); err != nil {
					t.Error(err)
					return
				}
			}
			keys, vals, err := eng.Begin().Scan(p, "t", nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range keys {
				if vals[i] != nil {
					state[string(keys[i])] = string(vals[i])
				}
			}
		})
		r.env.Run()
		return state
	}
	ref := run(wal.Sync)
	if len(ref) == 0 {
		t.Fatal("empty reference")
	}
	for _, mode := range []wal.CommitMode{wal.Async, wal.BA, wal.PM} {
		got := run(mode)
		if len(got) != len(ref) {
			t.Fatalf("%v: %d keys, want %d", mode, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("%v: %s = %q, want %q", mode, k, got[k], v)
			}
		}
	}
}

// TestBACheckpointThenPowerLossAtTheLog: 500 B upserts over 50 keys on a
// 512 KB XLOG up to the first checkpoint, twelve more commits, power
// cut. Asserted at the log, on the engine's own placement (a reopened
// engine cannot serve a checkpointed heap yet, DESIGN.md §11): Recover
// must hand back exactly the twelve batches past the checkpoint, not the
// hundreds of checkpointed ones still sitting in the ring's files and BA
// windows.
func TestBACheckpointThenPowerLossAtTheLog(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.BA, 128<<10)
		eng, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		val := bytes.Repeat([]byte{1}, 500)
		after := -1
		var live []wal.LSN
		for i := 0; after != 0; i++ {
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(fmt.Sprintf("k%04d", i%50)), val)
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			switch {
			case after > 0:
				after--
				live = append(live, wal.LSN(eng.Log().AppendOff()))
			case eng.Stats().Checkpoints == 1:
				after = 12
			case i > 5000:
				t.Fatal("the XLOG never checkpointed")
			}
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		lcfg := cfg.Log
		lcfg.Name = LogName
		l, err := wal.Open(r.env, lcfg)
		if err != nil {
			t.Fatalf("reopen the xlog: %v", err)
		}
		var got []wal.LSN
		if err := l.Recover(p, func(lsn wal.LSN, _ []byte) error {
			got = append(got, lsn)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if !slices.Equal(got, live) {
			t.Fatalf("recovery visited %d batches, want exactly the %d committed past the checkpoint", len(got), len(live))
		}
	})
	r.env.Run()
}
