package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	m := newMemtable(1, nil)
	m.add([]byte("b"), 1, []byte("v1"))
	m.add([]byte("a"), 2, []byte("v2"))
	m.add([]byte("b"), 3, []byte("v3"))
	if v, ok := m.get([]byte("b")); !ok || string(v) != "v3" {
		t.Fatalf("get b = %q, %v", v, ok)
	}
	if v, ok := m.get([]byte("a")); !ok || string(v) != "v2" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	if _, ok := m.get([]byte("zz")); ok {
		t.Fatal("phantom key")
	}
	if m.len() != 3 {
		t.Fatalf("len = %d", m.len())
	}
}

func TestMemtableOrderedIteration(t *testing.T) {
	m := newMemtable(42, nil)
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
		m := newMemtable(7, nil)
		shadow := make(map[string]string)
		for i, raw := range ops {
			k := fmt.Sprintf("k%d", raw%32)
			v := fmt.Sprintf("v%d", i)
			m.add([]byte(k), uint64(i+1), []byte(v))
			shadow[k] = v
		}
		for k, want := range shadow {
			got, ok := m.get([]byte(k))
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
	b := bloom{bits: bloomBits(nil, 1000), k: 7}
	for i := 0; i < 1000; i++ {
		b.addHash(crc32.ChecksumIEEE([]byte(fmt.Sprintf("key-%d", i))))
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
			w.add([]byte(fmt.Sprintf("key-%04d", i)), uint64(i+1), []byte(fmt.Sprintf("value-%d", i)))
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
	blk := func(s string) []byte { return []byte(s) }
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
	if raw, ok := c.get(1, 1); !ok || string(raw) != "b2" {
		t.Fatalf("re-put did not replace (1,1): %q %v", raw, ok)
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

// audit runs the rig drive's audit — the FTL page map, the write
// buffer and the BA mapping table — at a quiescent point.
func (r *dbRig) audit(t *testing.T) {
	t.Helper()
	if err := r.ssd.Audit(); err != nil {
		t.Fatal(err)
	}
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

// Compaction keeps the newest value of every key, and the tree it
// leaves passes Audit. Each round overwrites keys of its own range and
// ends with a flush, so a compaction's output never overlaps the L1
// tables of earlier rounds: L1 ends up holding several tables, and an
// install that puts them out of key order fails the audit.
func TestCompactionKeepsDataCorrect(t *testing.T) {
	r := newDBRig()
	var db *DB
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.Sync)
		cfg.MemtableBytes = 16 << 10
		cfg.L0Trigger = 2
		cfg.LevelBase = 64 << 10
		var err error
		db, err = Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow := make(map[string]string)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("user%d-%03d", i/250, rng.Intn(100))
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put(p, []byte(k), []byte(v)); err != nil {
				t.Fatalf("put: %v", err)
			}
			shadow[k] = v
			if (i+1)%250 == 0 {
				if err := db.FlushAll(p); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
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
	if n := len(db.levels[1]); n < 2 {
		t.Fatalf("L1 holds %d tables at quiescence; the audit's order checks need two", n)
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Audit fails a tree whose L1 holds a table installed out of key order,
// two overlapping tables or a table whose bounds are inverted, and one
// whose L0 holds a table with inverted bounds. A sound L1 passes, so do
// overlapping L0 tables, which flushes make, and the check allocates
// nothing.
func TestAuditRejectsL1OutOfKeyOrder(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		newTable := func(keys ...string) *table {
			w := db.writer()
			defer db.idleWriter(w)
			for i, k := range keys {
				w.add([]byte(k), uint64(i+1), []byte("v"))
			}
			tb, err := db.writeTable(p, w)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
		ac, df, eg, hi := newTable("a", "c"), newTable("d", "f"), newTable("e", "g"), newTable("h", "i")
		inverted := *hi
		inverted.first, inverted.last = hi.last, hi.first
		for _, c := range []struct {
			name   string
			l0, l1 []*table
			bad    bool
		}{
			{"sorted", nil, []*table{ac, df, hi}, false},
			{"out of key order", nil, []*table{df, ac}, true},
			{"overlapping", nil, []*table{ac, df, eg}, true},
			{"inverted bounds", nil, []*table{ac, &inverted}, true},
			{"L0 overlapping", []*table{df, eg}, nil, false},
			{"L0 inverted bounds", []*table{df, &inverted}, nil, true},
		} {
			db.levels[0], db.levels[1] = c.l0, c.l1
			if err := db.Audit(); (err != nil) != c.bad {
				t.Errorf("%s: Audit = %v", c.name, err)
			}
		}
		db.levels[0], db.levels[1] = []*table{df, eg}, []*table{ac, df, hi}
		if n := testing.AllocsPerRun(100, func() { _ = db.Audit() }); n != 0 {
			t.Errorf("Audit of a sound tree allocates %.1f objects", n)
		}
	})
	r.env.Run()
}

// A committed WAL record of a type the engine never writes fails the
// replay instead of coming back as a put: type 7, and type 2, the
// deletion record the engine once wrote.
func TestRecoveryRejectsUnknownRecordType(t *testing.T) {
	for _, typ := range []byte{7, 2} {
		r := newDBRig()
		r.env.Go("t", func(p *sim.Proc) {
			db, err := Open(r.env, p, r.config(wal.Sync))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put(p, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			lsn, err := db.walAct.Append(p, []byte{typ, 1, 0, 0, 0, 'x', 'v'})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.walAct.Commit(p, lsn); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(r.env, p, r.config(wal.Sync)); err == nil {
				t.Errorf("a record of type %d replayed without an error", typ)
			}
		})
		r.env.Run()
	}
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

// TestConcurrentWriters runs eight writers on the byte path and on the
// block path. The block-mode logs go through the device's write buffer,
// so the quiescent audit checks a buffer that was used.
func TestConcurrentWriters(t *testing.T) {
	for _, mode := range []wal.CommitMode{wal.BA, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newDBRig()
			var db *DB
			r.env.Go("open", func(p *sim.Proc) {
				var err error
				db, err = Open(r.env, p, r.config(mode))
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
			if err := db.Audit(); err != nil {
				t.Fatal(err)
			}
			r.audit(t)
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
		})
	}
}

// Property: DB == map under random put/get, across flushes.
func TestPropertyDBMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		r := newDBRig()
		ok := true
		var audit func() error
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
					got, found, err := db.Get(p, []byte(k))
					want, inShadow := shadow[k]
					if err != nil || found != inShadow || string(got) != want {
						ok = false
						return
					}
				}
			}
			for i := 0; i < 64; i++ {
				k := fmt.Sprintf("k%03d", i)
				got, found, err := db.Get(p, []byte(k))
				want, inShadow := shadow[k]
				if err != nil || found != inShadow || string(got) != want {
					ok = false
					return
				}
			}
			audit = db.Audit
		})
		r.env.Run()
		return ok && audit() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSSTDetected(t *testing.T) {
	e := sim.NewEnv()
	fs := testFS(e)
	e.Go("t", func(p *sim.Proc) {
		w := newSSTWriter()
		for i := 0; i < 100; i++ {
			w.add([]byte(fmt.Sprintf("k%03d", i)), uint64(i+1), []byte("v"))
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
		img2.add([]byte("k"), 1, []byte("v"))
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
		// An entry whose value length is 0xFFFFFFFF, the deletion marker
		// the format once had, runs past its block.
		img4 := newSSTWriter()
		img4.add([]byte("k"), 1, []byte("v"))
		raw = img4.finish()
		binary.LittleEndian.PutUint32(raw[4:], 0xFFFFFFFF)
		f4, _ := fs.Create("bad4", int64(len(raw)))
		f4.WriteAt(p, 0, raw)
		tab, err := openTable(p, f4, 4)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		tab.setBounds([]byte("k"), []byte("k"))
		if e, ok, err := tab.get(p, newBlockCache(4), []byte("k")); !errors.Is(err, errCorruptSST) {
			t.Errorf("an entry of value length 0xFFFFFFFF read as %q/%v, err %v", e.value, ok, err)
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
					db.Get(p, []byte(k))
				default:
					db.Put(p, []byte(k), []byte(fmt.Sprintf("v%d", i)))
				}
			}
			for k := 0; k < 80; k++ {
				key := fmt.Sprintf("k%03d", k)
				v, ok, err := db.Get(p, []byte(key))
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					state[key] = string(v)
				}
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
	r.audit(t)
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
