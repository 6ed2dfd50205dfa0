package pglite

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/obs"
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

// A heap scan indexes every live tuple under the high-water mark, counts
// pages up to the last non-empty one and kills the second live tuple of
// a key.
func TestHeapScanKeepsOneVersionPerKey(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		f, err := r.fs.Create("heap-t", 8*heapPageBytes)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, 4*heapPageBytes)
		page := func(i int) *heapPage { return loadHeapPage(img[i*heapPageBytes : (i+1)*heapPageBytes]) }
		p0, p2 := page(0), page(2)
		p0.insert(encodeTuple([]byte("a"), []byte("old")))
		p0.kill(p0.insert(encodeTuple([]byte("dead"), []byte("x"))))
		p2.insert(encodeTuple([]byte("b"), []byte("1")))
		p2.insert(encodeTuple([]byte("a"), []byte("new")))
		page(3) // a fresh page the scan must not count: zero slots
		if err := f.WriteAt(p, 0, img); err != nil {
			t.Fatal(err)
		}
		mark := make([]byte, heapPageBytes)
		mark[0] = 4 // the four pages a checkpoint left
		if err := f.WriteAt(p, 7*heapPageBytes, mark); err != nil {
			t.Fatal(err)
		}
		h := newHeapStore(f, 0, obs.Of(r.env).Registry())
		idx := newBTree()
		if err := h.scan(p, idx); err != nil {
			t.Fatal(err)
		}
		if h.pages != 3 || h.lastFree != 2 || idx.Len() != 2 {
			t.Fatalf("pages %d, lastFree %d, %d keys; want 3, 2, 2", h.pages, h.lastFree, idx.Len())
		}
		if r, ok := idx.Get([]byte("a")); !ok || r != (rid{page: 0, slot: 0}) {
			t.Fatalf("a at %v (found %v), want the first version found", r, ok)
		}
		if _, err := h.read(p, rid{page: 2, slot: 1}); !errors.Is(err, errDeadTuple) {
			t.Fatalf("the second live version of a reads %v, want it killed", err)
		}
	})
	r.env.Run()
}

// A reopen reads no page past the high-water mark. An interrupted
// checkpoint writes this life's pages back past the mark and is cut
// before its mark write; the next life's heap grows over only the
// first of them and completes its checkpoint, which sets the mark
// below the rest. Those pages still hold live tuples of keys no log
// covers any more (their XLOG records went with that checkpoint), and
// the reopen after it must not index them.
func TestHeapScanStopsAtTheMark(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		f, err := r.fs.Create("heap-t", 16*heapPageBytes)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.Of(r.env).Registry()
		val := bytes.Repeat([]byte{'v'}, 1500) // two tuples a page
		insert := func(h *heapStore, prefix string, n int) {
			for i := 0; i < n; i++ {
				if _, err := h.insert(p, encodeTuple([]byte(fmt.Sprintf("%s%02d", prefix, i)), val)); err != nil {
					t.Fatal(err)
				}
			}
		}
		reopen := func() (*heapStore, *btree) {
			h, idx := newHeapStore(f, 0, reg), newBTree()
			if err := h.scan(p, idx); err != nil {
				t.Fatal(err)
			}
			return h, idx
		}
		h, _ := reopen()
		insert(h, "early", 4)
		if err := h.checkpoint(p); err != nil {
			t.Fatal(err)
		}
		insert(h, "late", 8)
		if err := h.pool.flushAll(p); err != nil { // the write-back, cut before the mark
			t.Fatal(err)
		}
		stale := h.pages
		h, idx := reopen()
		if h.pages != h.mark || idx.Len() != 4 {
			t.Fatalf("the reopen after the cut counts %d pages and %d keys, want the mark's %d and early's 4", h.pages, idx.Len(), h.mark)
		}
		insert(h, "next", 2)
		if err := h.checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if h.mark >= stale {
			t.Fatalf("mark %d, not below the %d pages the cut left", h.mark, stale)
		}
		h, idx = reopen()
		if h.pages != h.mark || idx.Len() != 6 {
			t.Fatalf("reopen counts %d pages and %d keys, want the mark's %d and early+next's 6", h.pages, idx.Len(), h.mark)
		}
		for i := 0; i < 8; i++ {
			if rd, ok := idx.Get([]byte(fmt.Sprintf("late%02d", i))); ok {
				t.Fatalf("late%02d revived at %v, past the mark %d", i, rd, h.mark)
			}
		}
	})
	r.env.Run()
}

// A page the heap has never used starts empty in the pool without a
// device read, whatever bytes an earlier life left on the media.
func TestFreshHeapPageReadsNothing(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		f, err := r.fs.Create("heap-t", 8*heapPageBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(p, 0, bytes.Repeat([]byte{0xAB}, 2*heapPageBytes)); err != nil {
			t.Fatal(err)
		}
		reads := r.ssd.Device().Profile().Name + ".read_cmds"
		before := counter(t, r.env, reads)
		h := newHeapStore(f, 0, obs.Of(r.env).Registry())
		tuple := encodeTuple([]byte("k"), bytes.Repeat([]byte{'v'}, 1000))
		var rids []rid
		for len(rids) == 0 || rids[len(rids)-1].page < 1 {
			rd, err := h.insert(p, tuple)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rd)
		}
		if n := counter(t, r.env, reads) - before; n != 0 {
			t.Fatalf("filling two fresh pages read the device %d times", n)
		}
		for _, rd := range rids {
			if got, err := h.read(p, rd); err != nil || !bytes.Equal(got, tuple) {
				t.Fatalf("%v reads %d bytes, err %v", rd, len(got), err)
			}
		}
		if hp, _ := h.pool.fetch(p, 1); hp.slotCount() != 1 {
			t.Fatalf("page 1 holds %d slots, want the one inserted", hp.slotCount())
		}
	})
	r.env.Run()
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

// audit runs the rig drive's audit — the FTL page map, the write
// buffer and the BA mapping table — at a quiescent point.
func (r *rig) audit(t *testing.T) {
	t.Helper()
	if err := r.ssd.Audit(); err != nil {
		t.Fatal(err)
	}
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

// The engine counts into the environment's "pglite.*" series: three
// commits of five row writes, two point reads and a scan, one
// checkpoint, and buffer-pool traffic on both sides.
func TestCountersAreRegistrySeries(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("node")
		for i, keys := range [][]string{{"a", "b"}, {"c", "d"}, {"a"}} {
			tx := eng.Begin()
			for _, k := range keys {
				tx.Upsert("node", []byte(k), []byte{byte(i)})
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		for _, k := range []string{"a", "z"} {
			if _, _, err := eng.Begin().Get(p, "node", []byte(k)); err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
		}
		if err := eng.Begin().ScanFunc(p, "node", nil, 0, func(_, _ []byte) bool { return true }); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if err := eng.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	})
	r.env.Run()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"pglite.commits", 3}, {"pglite.writes", 5}, {"pglite.reads", 3}, {"pglite.checkpoints", 1},
	} {
		if got := counter(t, r.env, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if hits, misses := counter(t, r.env, "pglite.pool_hits"), counter(t, r.env, "pglite.pool_misses"); hits == 0 || misses == 0 {
		t.Errorf("%d pool hits, %d pool misses; want both", hits, misses)
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
		var keys []string
		err := eng.Begin().ScanFunc(p, "link", []byte("n1|010"), 5, func(k, v []byte) bool {
			if string(v) != "x" {
				t.Errorf("%s = %q", k, v)
			}
			keys = append(keys, string(k))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 5 || keys[0] != "n1|010" || keys[4] != "n1|014" {
			t.Fatalf("scan keys = %v", keys)
		}
	})
	r.env.Run()
}

// The pool holds the whole heap: rows spread over many pages all read
// back, and the pool misses each page once, when the heap first uses
// it, and never reads one back.
func TestPoolHoldsTheWholeHeap(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.Sync))
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
		for i := 0; i < 400; i += 37 {
			v, ok, err := eng.Begin().Get(p, "tbl", []byte(fmt.Sprintf("k%05d", i)))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
			}
		}
		pages := eng.tables["tbl"].heap.pages
		if misses := counter(t, r.env, "pglite.pool_misses"); pages < 16 || misses != uint64(pages) {
			t.Errorf("%d misses over a heap of %d pages; want one per page", misses, pages)
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
		if counter(t, r.env, "pglite.checkpoints") == 0 {
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

// TestConcurrentCommitters runs twelve committers on the byte path and
// on the block path. The block-mode XLOG goes through the device's
// write buffer, so the quiescent audit checks a buffer that was used.
func TestConcurrentCommitters(t *testing.T) {
	for _, mode := range []wal.CommitMode{wal.BA, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig()
			var eng *Engine
			r.env.Go("setup", func(p *sim.Proc) {
				var err error
				eng, err = Open(r.env, p, r.config(mode))
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
			r.audit(t)
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
		})
	}
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
			err = eng.Begin().ScanFunc(p, "t", nil, 0, func(k, v []byte) bool {
				if v != nil {
					state[string(k)] = string(v)
				}
				return true
			})
			if err != nil {
				t.Error(err)
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
// cut. Asserted at the log, on the engine's own placement: Recover
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
			case counter(t, r.env, "pglite.checkpoints") == 1:
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

// A checkpoint flushes the heap and frees the XLOG below it, so a
// reopened engine serves the keys written before it from the heap and
// the ones after it from the replay: every committed key reads back at
// its last committed value. Two runs end at the same virtual time: a
// checkpoint writes its pages in an order that does not depend on map
// iteration.
func TestReopenAfterCheckpointServesHeap(t *testing.T) {
	if a, b := reopenAfterCheckpoint(t), reopenAfterCheckpoint(t); a != b {
		t.Fatalf("two identical runs ended at %v and %v", a, b)
	}
}

func reopenAfterCheckpoint(t *testing.T) sim.Time {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.BA, 128<<10)
		eng, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		acked := map[string]string{}
		after := -1
		for i := 0; after != 0; i++ {
			k, v := fmt.Sprintf("k%04d", i%70), fmt.Sprintf("v%05d-%s", i, bytes.Repeat([]byte{'x'}, 480))
			tx := eng.Begin()
			tx.Upsert("tbl", []byte(k), []byte(v))
			if i%9 == 4 {
				tx.Delete("tbl", []byte(fmt.Sprintf("k%04d", (i+3)%70)))
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			acked[k] = v
			if i%9 == 4 {
				delete(acked, fmt.Sprintf("k%04d", (i+3)%70))
			}
			switch {
			case after > 0:
				after--
			case counter(t, r.env, "pglite.checkpoints") == 2:
				after = 30
			case i > 5000:
				t.Fatal("the XLOG never checkpointed twice")
			}
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		eng, err = Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 70; i++ {
			k := fmt.Sprintf("k%04d", i)
			v, ok, err := eng.Begin().Get(p, "tbl", []byte(k))
			if err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
			if want, acked := acked[k]; ok != acked || string(v) != want {
				t.Fatalf("%s = %.6q (found %v), want %.6q (found %v)", k, v, ok, want, acked)
			}
		}
		// The reopened heap takes new rows past the ones it holds.
		tx := eng.Begin()
		tx.Upsert("tbl", []byte("new"), []byte("row"))
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit after reopen: %v", err)
		}
	})
	r.env.Run()
	return r.env.Now()
}

// A committed XLOG batch holding an op the engine never writes fails
// the replay instead of being skipped.
func TestReplayRejectsUnknownOp(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		eng, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		lsn, err := eng.xlog.Append(p, encodeBatch([]op{{code: 7, table: "tbl", key: []byte("k")}}))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.xlog.Commit(p, lsn); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(r.env, p, r.config(wal.Sync)); err == nil {
			t.Fatal("a batch of op 7 replayed without an error")
		}
	})
	r.env.Run()
}

// A power cut between a checkpoint's write-back and its mark write: the
// pages past the last mark hold this life's rows on media, and the mark
// does not cover them. The reopen serves
// every acked key from the heap under the mark and the XLOG replay. The
// next life deletes those rows, extends the heap over the same pages and
// checkpoints; the reopen after that must not find the first life's
// rows there — a page past the mark starts empty on first use.
func TestCutPastHighWaterMarkRevivesNothing(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.config(wal.BA)
		val := func(k string) []byte { return append([]byte(k+"|"), bytes.Repeat([]byte{'v'}, 480)...) }
		commit := func(eng *Engine, upsert, del []string) {
			tx := eng.Begin()
			for _, k := range upsert {
				tx.Upsert("tbl", []byte(k), val(k))
			}
			for _, k := range del {
				tx.Delete("tbl", []byte(k))
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		keys := func(prefix string, n int) (out []string) {
			for i := 0; i < n; i++ {
				out = append(out, fmt.Sprintf("%s%03d", prefix, i))
			}
			return out
		}
		reopen := func() *Engine {
			if _, err := r.ssd.PowerLoss(p); err != nil {
				t.Fatalf("power loss: %v", err)
			}
			if err := r.ssd.PowerOn(p); err != nil {
				t.Fatalf("power on: %v", err)
			}
			eng, err := Open(r.env, p, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			return eng
		}
		expect := func(eng *Engine, present, absent []string) {
			for _, k := range present {
				if v, ok, err := eng.Begin().Get(p, "tbl", []byte(k)); err != nil || !ok || !bytes.Equal(v, val(k)) {
					t.Fatalf("acked %s reads %.8q (found %v, err %v)", k, v, ok, err)
				}
			}
			for _, k := range absent {
				if v, ok, err := eng.Begin().Get(p, "tbl", []byte(k)); err != nil || ok {
					t.Fatalf("deleted %s revived as %.8q (err %v)", k, v, err)
				}
			}
		}
		early, late, fill := keys("early", 40), keys("late", 40), keys("fill", 40)
		eng, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.CreateTable("tbl")
		for _, k := range early {
			commit(eng, []string{k}, nil)
		}
		if err := eng.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		mark := eng.tables["tbl"].heap.mark
		for _, k := range late {
			commit(eng, []string{k}, nil)
		}
		// The checkpoint's write-back, cut before its mark write.
		h := eng.tables["tbl"].heap
		if err := h.pool.flushAll(p); err != nil {
			t.Fatal(err)
		}
		pages := h.pages
		eng = reopen()
		page := make([]byte, heapPageBytes)
		if err := eng.tables["tbl"].heap.pool.file.ReadAt(p, int64(mark)*heapPageBytes, page); err != nil {
			t.Fatal(err)
		}
		if past := loadHeapPage(page); pages < mark+4 || past.slotCount() == 0 {
			t.Fatalf("heap at %d pages (mark %d), %d tuples past the mark after the cut: the rows never went past the mark to media",
				pages, mark, past.slotCount())
		}
		expect(eng, append(early, late...), nil)
		commit(eng, nil, late)
		for _, k := range fill {
			commit(eng, []string{k}, nil)
		}
		if err := eng.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		eng = reopen()
		expect(eng, append(early, fill...), late)
	})
	r.env.Run()
}

// Len returns the number of indexed keys.
func (t *btree) Len() int { return t.size }

// Log exposes the XLOG for commit-latency accounting in benches.
func (e *Engine) Log() *wal.Log { return e.xlog }
