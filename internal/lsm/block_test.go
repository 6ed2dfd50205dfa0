package lsm

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// The SST image is a fixed format: the filter is built from per-key
// hashes, and its bits must land exactly where hashing the keys put
// them. The CRC is of an image written before the filter took hashes.
func TestSSTImageGolden(t *testing.T) {
	w := newSSTWriter()
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("golden-%04d", i*7))
		if i%9 == 4 {
			w.add(key, uint64(1000-i), nil, true)
			continue
		}
		w.add(key, uint64(1000-i), []byte(fmt.Sprintf("v%d-%0*d", i, i%37, i)), false)
	}
	img := w.finish()
	if len(w.index) < 2 {
		t.Fatalf("image has %d blocks; the input should span several", len(w.index))
	}
	if got, want := crc32.ChecksumIEEE(img), uint32(0xc4f53137); len(img) != 9668 || got != want {
		t.Fatalf("image: %d bytes, crc %#08x; want 9668 bytes, crc %#08x", len(img), got, want)
	}
}

// flushedDB opens a DB on the rig, writes n keys in a shuffled order
// and flushes them to SSTs. It reports a failure and returns nil.
func flushedDB(t *testing.T, p *sim.Proc, r *dbRig, cfg Config, n int, val func(k, ver int) []byte) *DB {
	t.Helper()
	db, err := Open(r.env, p, cfg)
	if err != nil {
		t.Error(err)
		return nil
	}
	for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
		if err := db.Put(p, aliasKey(k), val(k, 0)); err != nil {
			t.Errorf("put %d: %v", k, err)
			return nil
		}
	}
	if err := db.FlushAll(p); err != nil {
		t.Error(err)
		return nil
	}
	return db
}

func aliasKey(k int) []byte { return []byte(fmt.Sprintf("key%06d", k)) }

// A Get whose block is already cached allocates only the copy it
// returns.
func TestCachedGetAllocatesOnlyTheCopy(t *testing.T) {
	r := newDBRig()
	val := func(k, _ int) []byte { return []byte(fmt.Sprintf("value-%d", k)) }
	var per float64
	var missed uint64
	r.env.Go("t", func(p *sim.Proc) {
		db := flushedDB(t, p, r, r.config(wal.Sync), 64, val)
		key := aliasKey(17)
		if db == nil {
			return
		}
		if _, ok, err := db.Get(p, key); !ok || err != nil {
			t.Errorf("warm-up get: %v %v", ok, err)
			return
		}
		miss0 := db.Stats().CacheMiss
		const gets = 1000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < gets; i++ {
			if _, ok, err := db.Get(p, key); !ok || err != nil {
				t.Errorf("get: %v %v", ok, err)
				return
			}
		}
		runtime.ReadMemStats(&m1)
		per = float64(m1.Mallocs-m0.Mallocs) / gets
		missed = db.Stats().CacheMiss - miss0
	})
	r.env.Run()
	if t.Failed() {
		return
	}
	if missed != 0 {
		t.Fatalf("%d cache misses; the gets were not served from the cache", missed)
	}
	if per > 1.05 {
		t.Fatalf("%.3f allocations per cached Get, want at most the returned copy", per)
	}
}

// Cached entries, a compaction's merge input and the iterator all alias
// the block buffers read from the device. Writing into what Get or the
// iterator returns must not reach them — not before a compaction, and
// not through one whose merge reads more blocks than the cache holds,
// so that it evicts the blocks it is still merging from.
func TestReturnedBytesDoNotAliasCachedBlocks(t *testing.T) {
	const n = 6000
	r := newDBRig()
	cfg := r.config(wal.Sync)
	cfg.MemtableBytes = 128 << 10
	cfg.WALBytes = 256 << 10
	cfg.LevelBase = 64 << 20 // one ever-growing L1: every L0 compaction merges all of it
	val := func(k, ver int) []byte {
		return []byte(fmt.Sprintf("k%d-v%d-%s", k, ver, bytes.Repeat([]byte{'y'}, 200)))
	}
	ver := make([]int, n)
	var db *DB
	// check reads every seventh key and writes into the returned value.
	check := func(p *sim.Proc, stage string) bool {
		for k := 0; k < n; k += 7 {
			got, ok, err := db.Get(p, aliasKey(k))
			if err != nil || !ok || !bytes.Equal(got, val(k, ver[k])) {
				t.Errorf("%s: key %d = %.20q (ok=%v err=%v), want version %d", stage, k, got, ok, err, ver[k])
				return false
			}
			for i := range got {
				got[i] = 'X'
			}
		}
		return true
	}
	// sweep iterates every key, checks it and writes into the value.
	sweep := func(p *sim.Proc, stage string) bool {
		it, err := db.NewIterator(p, nil)
		if err != nil {
			t.Errorf("%s: %v", stage, err)
			return false
		}
		defer it.Close()
		seen := 0
		for ; it.Valid(); it.Next() {
			var k int
			fmt.Sscanf(string(it.Key()), "key%06d", &k)
			if !bytes.Equal(it.Value(), val(k, ver[k])) {
				t.Errorf("%s: iterator key %d = %.20q, want version %d", stage, k, it.Value(), ver[k])
				return false
			}
			for i := range it.Value() {
				it.Value()[i] = 'Z'
			}
			seen++
		}
		if seen != n {
			t.Errorf("%s: iterator saw %d keys, want %d", stage, seen, n)
			return false
		}
		return true
	}
	r.env.Go("t", func(p *sim.Proc) {
		if db = flushedDB(t, p, r, cfg, n, val); db == nil {
			return
		}
		if !check(p, "flushed") || !sweep(p, "flushed") || !check(p, "after writing into returned values") {
			return
		}
		// Overwrite every other key: enough flushes for L0 compactions
		// that merge the whole of L1, with reads in between.
		before := db.Stats().Compactions
		for k := 0; k < n; k += 2 {
			ver[k]++
			if err := db.Put(p, aliasKey(k), val(k, ver[k])); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if k%1000 == 0 && !check(p, "mid-overwrite") {
				return
			}
		}
		if err := db.FlushAll(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		if db.Stats().Compactions == before {
			t.Error("no compaction ran")
			return
		}
		blocks := 0
		for _, tb := range db.levels[1] {
			blocks += len(tb.index)
		}
		if blocks <= blockCacheSlots {
			t.Errorf("L1 holds %d blocks; a merge of it would not evict its own inputs", blocks)
			return
		}
		_ = check(p, "after compaction") && sweep(p, "after compaction") && check(p, "after the last sweep")
	})
	r.env.Run()
}
