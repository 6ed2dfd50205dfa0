package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// ---- memtable unit tests ----

func TestMemtableBasic(t *testing.T) {
	m := newMemtable(1)
	m.add([]byte("b"), 1, []byte("v1"))
	m.add([]byte("a"), 2, []byte("v2"))
	m.add([]byte("b"), 3, []byte("v3"))
	if v, ok := m.get([]byte("b"), ^uint64(0)); !ok || string(v) != "v3" {
		t.Fatalf("get b = %q, %v", v, ok)
	}
	if v, ok := m.get([]byte("a"), ^uint64(0)); !ok || string(v) != "v2" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	if _, ok := m.get([]byte("zz"), ^uint64(0)); ok {
		t.Fatal("phantom key")
	}
	if m.len() != 3 {
		t.Fatalf("len = %d", m.len())
	}
}

func TestMemtableTombstone(t *testing.T) {
	m := newMemtable(1)
	m.add([]byte("k"), 1, []byte("v"))
	m.add([]byte("k"), 2, nil)
	v, ok := m.get([]byte("k"), ^uint64(0))
	if !ok || v != nil {
		t.Fatalf("tombstone: %q %v", v, ok)
	}
}

func TestMemtableOrderedIteration(t *testing.T) {
	m := newMemtable(42)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(100))
		m.add([]byte(k), uint64(i+1), []byte("v"))
	}
	var prevKey []byte
	var prevSeq uint64
	for n := m.first(); n != nil; n = n.next[0] {
		if prevKey != nil {
			c := bytes.Compare(prevKey, n.key)
			if c > 0 {
				t.Fatal("keys out of order")
			}
			if c == 0 && prevSeq < n.seq {
				t.Fatal("versions out of order (newest first expected)")
			}
		}
		prevKey, prevSeq = n.key, n.seq
	}
}

// Property: memtable behaves like a map with last-writer-wins.
func TestPropertyMemtableLastWriteWins(t *testing.T) {
	prop := func(ops []uint16) bool {
		m := newMemtable(7)
		shadow := make(map[string]string)
		for i, raw := range ops {
			k := fmt.Sprintf("k%d", raw%32)
			v := fmt.Sprintf("v%d", i)
			m.add([]byte(k), uint64(i+1), []byte(v))
			shadow[k] = v
		}
		for k, want := range shadow {
			got, ok := m.get([]byte(k), ^uint64(0))
			if !ok || string(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ---- bloom + SST unit tests ----

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative at %d", i)
		}
	}
	// False-positive rate should be small.
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("false positive rate %d/1000 too high", fp)
	}
}

func testFS(e *sim.Env) *vfs.FS {
	p := device.ULLSSD()
	p.Nand.Channels = 2
	p.Nand.DiesPerChannel = 2
	p.Nand.BlocksPerDie = 64
	p.Nand.PagesPerBlock = 32
	p.FTL.OverProvision = 0.2
	p.WriteBufferPages = 64
	p.DrainWorkers = 8
	return vfs.New(device.New(e, p))
}

func TestSSTWriteOpenGet(t *testing.T) {
	e := sim.NewEnv()
	fs := testFS(e)
	e.Go("t", func(p *sim.Proc) {
		w := newSSTWriter()
		for i := 0; i < 500; i++ {
			w.add([]byte(fmt.Sprintf("key-%04d", i)), uint64(i+1), []byte(fmt.Sprintf("value-%d", i)), false)
		}
		img := w.finish()
		f, err := fs.Create("sst", int64(len(img)))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.WriteAt(p, 0, img); err != nil {
			t.Fatalf("write: %v", err)
		}
		tab, err := openTable(p, f, 1)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		tab.setBounds(w.first, w.last)
		if tab.count != 500 {
			t.Fatalf("count = %d", tab.count)
		}
		cache := newBlockCache(16)
		for _, i := range []int{0, 123, 499} {
			key := []byte(fmt.Sprintf("key-%04d", i))
			ent, ok, err := tab.get(p, cache, key)
			if err != nil || !ok {
				t.Fatalf("get %s: %v %v", key, ok, err)
			}
			if string(ent.value) != fmt.Sprintf("value-%d", i) {
				t.Fatalf("value = %q", ent.value)
			}
		}
		if _, ok, _ := tab.get(p, cache, []byte("nope")); ok {
			t.Fatal("phantom key in SST")
		}
	})
	e.Run()
}

// The block cache evicts in order of first insertion. Hits and misses
// decide which device reads a run makes, so the policy is part of every
// kv result: a get must not refresh an entry, a re-put must not requeue
// it, and the order must survive the ring wrapping around.
func TestBlockCacheFIFO(t *testing.T) {
	blk := func(s string) []entry { return []entry{{key: []byte(s)}} }
	c := newBlockCache(3)
	c.put(1, 0, blk("a"))
	c.put(1, 1, blk("b"))
	c.put(1, 2, blk("c"))
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("(1,0) missing before any eviction")
	}
	c.put(1, 3, blk("d"))
	if _, ok := c.get(1, 0); ok {
		t.Fatal("a get saved (1,0) from eviction")
	}
	c.put(1, 1, blk("b2"))
	if ents, ok := c.get(1, 1); !ok || string(ents[0].key) != "b2" {
		t.Fatalf("re-put did not replace (1,1): %v %v", ents, ok)
	}
	c.put(1, 4, blk("e"))
	if _, ok := c.get(1, 1); ok {
		t.Fatal("a re-put requeued (1,1)")
	}
	for _, off := range []uint64{2, 3, 4} {
		if _, ok := c.get(1, off); !ok {
			t.Fatalf("(1,%d) evicted out of order", off)
		}
	}

	// Random gets and puts against a FIFO model, many laps of the ring.
	const slots = 4
	c = newBlockCache(slots)
	var model []blockKey
	rng := rand.New(rand.NewSource(7))
	evictions := 0
	for i := 0; i < 4000; i++ {
		k := blockKey{rng.Intn(3), uint64(rng.Intn(4))}
		if rng.Intn(3) == 0 {
			c.get(k.num, k.off)
		} else {
			c.put(k.num, k.off, blk("x"))
			found := false
			for _, m := range model {
				found = found || m == k
			}
			if !found {
				if model = append(model, k); len(model) > slots {
					model, evictions = model[1:], evictions+1
				}
			}
		}
		if len(c.items) != len(model) {
			t.Fatalf("op %d: cache holds %d blocks, model %d", i, len(c.items), len(model))
		}
		for _, m := range model {
			if _, ok := c.items[m]; !ok {
				t.Fatalf("op %d: %v evicted out of FIFO order", i, m)
			}
		}
	}
	if evictions < 20*slots {
		t.Fatalf("only %d evictions; the ring did not wrap often enough", evictions)
	}
}

// ---- engine tests ----

type dbRig struct {
	env *sim.Env
	ssd *core.TwoBSSD
	fs  *vfs.FS // shared for data + logs in these tests
}

func newDBRig() *dbRig {
	e := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 128
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.1
	cfg.Base.WriteBufferPages = 128
	cfg.Base.DrainWorkers = 8
	cfg.BABufferBytes = 128 * 4096 // 512 KB BA-buffer
	ssd := core.New(e, cfg)
	return &dbRig{env: e, ssd: ssd, fs: vfs.New(ssd.Device())}
}

func (r *dbRig) config(mode wal.CommitMode) Config {
	cfg := Config{
		DataFS:        r.fs,
		LogFS:         r.fs,
		WALMode:       mode,
		MemtableBytes: 32 << 10,
		WALBytes:      128 << 10, // quarter of the BA-buffer
		LevelBase:     256 << 10,
	}
	if mode == wal.BA {
		cfg.SSD = r.ssd
		cfg.EIDs = []core.EID{0, 1, 2, 3}
	}
	return cfg
}

func runPutGet(t *testing.T, mode wal.CommitMode, n int) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(mode))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("user%06d", i))
			v := []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte{'x'}, 100)))
			if err := db.Put(p, k, v); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("user%06d", i))
			v, ok, err := db.Get(p, k)
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if !ok {
				t.Fatalf("key %d missing", i)
			}
			if !bytes.HasPrefix(v, []byte(fmt.Sprintf("payload-%d-", i))) {
				t.Fatalf("key %d wrong value", i)
			}
		}
		st := db.Stats()
		if st.MemtableRotations == 0 {
			t.Error("expected rotations (memtable too large for test?)")
		}
	})
	r.env.Run()
}

func TestPutGetAcrossFlushesSync(t *testing.T) { runPutGet(t, wal.Sync, 800) }
func TestPutGetAcrossFlushesBA(t *testing.T)   { runPutGet(t, wal.BA, 800) }

func TestDeleteAndTombstones(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		db.Put(p, []byte("a"), []byte("1"))
		db.Put(p, []byte("b"), []byte("2"))
		db.Delete(p, []byte("a"))
		if _, ok, _ := db.Get(p, []byte("a")); ok {
			t.Fatal("deleted key visible")
		}
		// Force the tombstone into an SST and check again.
		if err := db.FlushAll(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if _, ok, _ := db.Get(p, []byte("a")); ok {
			t.Fatal("deleted key visible after flush")
		}
		if v, ok, _ := db.Get(p, []byte("b")); !ok || string(v) != "2" {
			t.Fatal("surviving key lost")
		}
	})
	r.env.Run()
}

func TestCompactionKeepsDataCorrect(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 16 << 10
		cfg.L0Trigger = 2
		cfg.LevelBase = 64 << 10
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow := make(map[string]string)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("user%04d", rng.Intn(400))
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put(p, []byte(k), []byte(v)); err != nil {
				t.Fatalf("put: %v", err)
			}
			shadow[k] = v
		}
		if db.Stats().Compactions == 0 {
			t.Error("expected compactions")
		}
		for k, want := range shadow {
			got, ok, err := db.Get(p, []byte(k))
			if err != nil || !ok {
				t.Fatalf("get %s: ok=%v err=%v", k, ok, err)
			}
			if string(got) != want {
				t.Fatalf("%s = %q, want %q", k, got, want)
			}
		}
	})
	r.env.Run()
}

func TestScanMergesAllSources(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 8 << 10
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			db.Put(p, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
		db.Delete(p, []byte("k0100"))
		keys, values, err := db.Scan(p, []byte("k0098"), 5)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		want := []string{"k0098", "k0099", "k0101", "k0102", "k0103"} // k0100 deleted
		if len(keys) != len(want) {
			t.Fatalf("scan returned %d keys", len(keys))
		}
		for i, w := range want {
			if string(keys[i]) != w {
				t.Fatalf("keys[%d] = %s, want %s", i, keys[i], w)
			}
		}
		_ = values
	})
	r.env.Run()
}

func TestWALRecoveryAfterUncleanStop(t *testing.T) {
	// Write without flushing memtables, then reopen: committed puts
	// must come back via WAL replay.
	r := newDBRig()
	var fileNames []string
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := db.Put(p, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		fileNames = r.fs.List()
	})
	r.env.Run()
	if len(fileNames) == 0 {
		t.Fatal("no files created")
	}
	// Reopen without FlushAll — simulating a crash after commits.
	r.env.Go("t2", func(p *sim.Proc) {
		db2, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 50; i++ {
			v, ok, err := db2.Get(p, []byte(fmt.Sprintf("k%02d", i)))
			if err != nil || !ok {
				t.Fatalf("k%02d lost after recovery (ok=%v err=%v)", i, ok, err)
			}
			if string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%02d = %q", i, v)
			}
		}
	})
	r.env.Run()
}

func TestBAWALRecoveryAfterPowerLoss(t *testing.T) {
	// Full-stack crash test: BA-committed puts + device power cycle +
	// reopen. This is the paper's end-to-end durability story.
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := db.Put(p, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		db2, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 40; i++ {
			v, ok, err := db2.Get(p, []byte(fmt.Sprintf("k%02d", i)))
			if err != nil || !ok {
				t.Fatalf("k%02d lost after power cycle (ok=%v err=%v)", i, ok, err)
			}
			if string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%02d = %q", i, v)
			}
		}
	})
	r.env.Run()
}

func TestConcurrentWriters(t *testing.T) {
	r := newDBRig()
	var db *DB
	r.env.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		const writers = 8
		for w := 0; w < writers; w++ {
			w := w
			r.env.Go("writer", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					k := []byte(fmt.Sprintf("w%d-k%03d", w, i))
					if err := db.Put(p, k, []byte("v")); err != nil {
						t.Errorf("w%d put: %v", w, err)
						return
					}
				}
			})
		}
	})
	r.env.Run()
	r.env.Go("verify", func(p *sim.Proc) {
		for w := 0; w < 8; w++ {
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("w%d-k%03d", w, i))
				if _, ok, err := db.Get(p, k); !ok || err != nil {
					t.Errorf("%s missing (ok=%v err=%v)", k, ok, err)
					return
				}
			}
		}
	})
	r.env.Run()
}

// Property: DB == map under random put/delete/get, across flushes.
func TestPropertyDBMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		r := newDBRig()
		ok := true
		r.env.Go("t", func(p *sim.Proc) {
			cfg := r.config(wal.Sync)
			cfg.MemtableBytes = 8 << 10
			db, err := Open(r.env, p, cfg)
			if err != nil {
				ok = false
				return
			}
			rng := rand.New(rand.NewSource(seed))
			shadow := make(map[string]string)
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(64))
				switch rng.Intn(3) {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					if err := db.Put(p, []byte(k), []byte(v)); err != nil {
						ok = false
						return
					}
					shadow[k] = v
				case 2:
					if err := db.Delete(p, []byte(k)); err != nil {
						ok = false
						return
					}
					delete(shadow, k)
				}
			}
			for k, want := range shadow {
				got, found, err := db.Get(p, []byte(k))
				if err != nil || !found || string(got) != want {
					ok = false
					return
				}
			}
			// And deleted keys stay deleted.
			for i := 0; i < 64; i++ {
				k := fmt.Sprintf("k%03d", i)
				if _, inShadow := shadow[k]; !inShadow {
					if _, found, _ := db.Get(p, []byte(k)); found {
						ok = false
						return
					}
				}
			}
		})
		r.env.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatchAtomicity(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		// Empty batch is a no-op.
		if err := db.Write(p, NewWriteBatch()); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		b := NewWriteBatch()
		b.Put([]byte("acct-a"), []byte("90"))
		b.Put([]byte("acct-b"), []byte("110"))
		b.Delete([]byte("acct-c"))
		if b.Len() != 3 {
			t.Fatalf("len = %d", b.Len())
		}
		if err := db.Write(p, b); err != nil {
			t.Fatalf("write: %v", err)
		}
		for k, want := range map[string]string{"acct-a": "90", "acct-b": "110"} {
			v, ok, _ := db.Get(p, []byte(k))
			if !ok || string(v) != want {
				t.Fatalf("%s = %q %v", k, v, ok)
			}
		}
		if _, ok, _ := db.Get(p, []byte("acct-c")); ok {
			t.Fatal("batched delete not applied")
		}
	})
	r.env.Run()
}

func TestWriteBatchSurvivesRecovery(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			b := NewWriteBatch()
			b.Put([]byte(fmt.Sprintf("b%d-k1", i)), []byte("v1"))
			b.Put([]byte(fmt.Sprintf("b%d-k2", i)), []byte("v2"))
			if err := db.Write(p, b); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		// Crash (no FlushAll) and reopen: batches replay from the WAL.
		db2, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 10; i++ {
			for _, suffix := range []string{"k1", "k2"} {
				k := []byte(fmt.Sprintf("b%d-%s", i, suffix))
				if _, ok, err := db2.Get(p, k); !ok || err != nil {
					t.Fatalf("%s lost (ok=%v err=%v)", k, ok, err)
				}
			}
		}
	})
	r.env.Run()
}

func TestBatchCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeBatchRecord(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := decodeBatchRecord([]byte{recBatch, 5, 0, 0, 0}); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, err := decodeBatchRecord([]byte{recPut, 0, 0, 0, 0}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestIteratorOrderedAndLive(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 8 << 10 // spread data over memtable + SSTs
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			db.Put(p, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
		db.Delete(p, []byte("k0050"))
		db.Put(p, []byte("k0051"), []byte("updated"))

		it, err := db.NewIterator(p, []byte("k0048"))
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var keys []string
		for it.Valid() && len(keys) < 6 {
			keys = append(keys, string(it.Key()))
			if string(it.Key()) == "k0051" && string(it.Value()) != "updated" {
				t.Errorf("k0051 = %q, want newest version", it.Value())
			}
			it.Next()
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		want := []string{"k0048", "k0049", "k0051", "k0052", "k0053", "k0054"}
		if len(keys) != len(want) {
			t.Fatalf("keys = %v", keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("keys = %v, want %v (tombstone k0050 skipped)", keys, want)
			}
		}
	})
	r.env.Run()
}

func TestIteratorFullSweepMatchesScan(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 8 << 10
		cfg.L0Trigger = 2
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(120))
			if rng.Intn(5) == 0 {
				db.Delete(p, []byte(k))
			} else {
				db.Put(p, []byte(k), []byte(fmt.Sprintf("v%d", i)))
			}
		}
		scanKeys, scanVals, err := db.Scan(p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, err := db.NewIterator(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		i := 0
		for ; it.Valid(); it.Next() {
			if i >= len(scanKeys) {
				t.Fatalf("iterator yielded more than Scan's %d keys", len(scanKeys))
			}
			if !bytes.Equal(it.Key(), scanKeys[i]) || !bytes.Equal(it.Value(), scanVals[i]) {
				t.Fatalf("pos %d: iter (%s)=%q vs scan (%s)=%q",
					i, it.Key(), it.Value(), scanKeys[i], scanVals[i])
			}
			i++
		}
		if i != len(scanKeys) {
			t.Fatalf("iterator yielded %d keys, Scan %d", i, len(scanKeys))
		}
	})
	r.env.Run()
}

func TestIteratorEmptyDB(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		it, err := db.NewIterator(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if it.Valid() {
			t.Fatal("empty DB iterator valid")
		}
		it.Close()
		it.Close() // double close is safe
	})
	r.env.Run()
}

func TestCorruptSSTDetected(t *testing.T) {
	e := sim.NewEnv()
	fs := testFS(e)
	e.Go("t", func(p *sim.Proc) {
		w := newSSTWriter()
		for i := 0; i < 100; i++ {
			w.add([]byte(fmt.Sprintf("k%03d", i)), uint64(i+1), []byte("v"), false)
		}
		img := w.finish()
		// Corrupt a byte inside the index region (its offset is the
		// first footer field; the CRC covers exactly that region).
		indexOff := binary.LittleEndian.Uint64(img[len(img)-footerBytes:])
		img[indexOff+2] ^= 0xFF
		f, _ := fs.Create("bad", int64(len(img)))
		f.WriteAt(p, 0, img)
		if _, err := openTable(p, f, 1); err == nil {
			t.Error("corrupted index accepted")
		}
		// Corrupt the magic: also rejected.
		img2 := newSSTWriter()
		img2.add([]byte("k"), 1, []byte("v"), false)
		raw := img2.finish()
		raw[len(raw)-1] ^= 0xFF
		f2, _ := fs.Create("bad2", int64(len(raw)))
		f2.WriteAt(p, 0, raw)
		if _, err := openTable(p, f2, 2); err == nil {
			t.Error("bad magic accepted")
		}
		// Too-short file.
		f3, _ := fs.Create("tiny", 16)
		if _, err := openTable(p, f3, 3); err == nil {
			t.Error("short file accepted")
		}
	})
	e.Run()
}

// Differential test: the same operation trace under every commit mode
// must converge to the identical logical state — commit modes may only
// change durability timing, never semantics.
func TestDifferentialCommitModes(t *testing.T) {
	type kvState map[string]string
	run := func(mode wal.CommitMode) kvState {
		r := newDBRig()
		state := make(kvState)
		r.env.Go("t", func(p *sim.Proc) {
			cfg := r.config(mode)
			cfg.MemtableBytes = 8 << 10
			db, err := Open(r.env, p, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(80))
				switch rng.Intn(4) {
				case 0:
					db.Delete(p, []byte(k))
				default:
					db.Put(p, []byte(k), []byte(fmt.Sprintf("v%d", i)))
				}
			}
			keys, vals, err := db.Scan(p, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range keys {
				state[string(keys[i])] = string(vals[i])
			}
		})
		r.env.Run()
		return state
	}
	ref := run(wal.Sync)
	if len(ref) == 0 {
		t.Fatal("empty reference state")
	}
	for _, mode := range []wal.CommitMode{wal.Async, wal.BA} {
		got := run(mode)
		if len(got) != len(ref) {
			t.Fatalf("%v state size %d != %d", mode, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("%v: %s = %q, want %q", mode, k, got[k], v)
			}
		}
	}
}

// Flushes overlapping compactions: a small memtable, L0Trigger 2 and
// eight writers make every flush process finish while an earlier one is
// still inside maybeCompact. Each writer owns its keys and stamps a
// version, so the last written value of every key is unambiguous. The
// run must not fault (two compactions dropping the same inputs), must
// not lose an L0 table installed mid-merge, and must never give two
// live tables the same file number (the block-cache key).
func TestFlushesOverlapCompactions(t *testing.T) {
	const (
		writers = 8
		keys    = 64 // per writer
		rounds  = 40
	)
	r := newDBRig()
	cfg := r.config(wal.Sync)
	cfg.MemtableBytes = 8 << 10
	cfg.WALBytes = 32 << 10
	cfg.L0Trigger = 2
	cfg.LevelBase = 64 << 10
	run := func() {
		defer func() {
			if f := recover(); f != nil {
				t.Fatalf("simulator fault: %v", f)
			}
		}()
		r.env.Run()
	}
	key := func(w, k int) []byte { return []byte(fmt.Sprintf("w%d-key%03d", w, k)) }
	val := func(w, k, ver int) []byte {
		return []byte(fmt.Sprintf("w%d-key%03d-v%04d-%s", w, k, ver, bytes.Repeat([]byte{'x'}, 96)))
	}
	var db *DB
	last := make([][]int, writers) // last version Put returned for
	r.env.Go("open", func(p *sim.Proc) {
		var err error
		if db, err = Open(r.env, p, cfg); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			w := w
			last[w] = make([]int, keys)
			r.env.Go("writer", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(31 + w)))
				for i := 0; i < rounds*keys; i++ {
					k := rng.Intn(keys)
					if err := db.Put(p, key(w, k), val(w, k, last[w][k]+1)); err != nil {
						t.Errorf("w%d put: %v", w, err)
						return
					}
					last[w][k]++
					if i%16 == 0 {
						k = rng.Intn(keys)
						if got, _, err := db.Get(p, key(w, k)); err != nil || (last[w][k] > 0 && !bytes.Equal(got, val(w, k, last[w][k]))) {
							t.Errorf("mid-run: %s = %.24q (err %v), want version %d", key(w, k), got, err, last[w][k])
							return
						}
					}
				}
			})
		}
	})
	run()
	if st := db.Stats(); st.Compactions < 4 || st.Flushes < 8 {
		t.Fatalf("only %d flushes / %d compactions; the test exercises nothing", st.Flushes, st.Compactions)
	}
	r.env.Go("verify", func(p *sim.Proc) {
		for w := 0; w < writers; w++ {
			for k := 0; k < keys; k++ {
				if last[w][k] == 0 {
					continue
				}
				got, ok, err := db.Get(p, key(w, k))
				if err != nil || !ok || !bytes.Equal(got, val(w, k, last[w][k])) {
					t.Errorf("%s = %.24q (ok=%v err=%v), want version %d", key(w, k), got, ok, err, last[w][k])
				}
			}
		}
	})
	run()
	seen := map[int]string{}
	for lvl, tables := range db.levels {
		for _, tb := range tables {
			if other, dup := seen[tb.num]; dup {
				t.Errorf("tables %s and %s (L%d) share file number %d", other, tb.file.Name(), lvl, tb.num)
			}
			seen[tb.num] = tb.file.Name()
			if tb.file.Name() != sstName(tb.num) {
				t.Errorf("table %s carries file number %d", tb.file.Name(), tb.num)
			}
		}
	}
}
