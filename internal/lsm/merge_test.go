package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// tableEntries decodes every entry of t, in order, through the cache.
func tableEntries(t *testing.T, p *sim.Proc, tb *table, c *blockCache) []entry {
	t.Helper()
	var out []entry
	for bi := range tb.index {
		raw, err := tb.readBlock(p, c, bi)
		if err != nil {
			t.Fatalf("block %d of %s: %v", bi, tb.file.Name(), err)
		}
		for pos := 0; ; {
			e, next, err := decodeEntry(raw, pos)
			if err != nil {
				t.Fatalf("block %d of %s: %v", bi, tb.file.Name(), err)
			}
			if next < 0 {
				break
			}
			e.key = append([]byte(nil), e.key...)
			e.value = append([]byte(nil), e.value...)
			out = append(out, e)
			pos = next
		}
	}
	return out
}

// referenceMerge is the merge compaction ran before it streamed: every
// input entry collected in input order, stably sorted by (key asc, seq
// desc), the first version per key kept.
func referenceMerge(inputs [][]entry) []entry {
	var all []entry
	for _, in := range inputs {
		all = append(all, in...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if c := bytes.Compare(all[i].key, all[j].key); c != 0 {
			return c < 0
		}
		return all[i].seq > all[j].seq
	})
	var out []entry
	var lastKey []byte
	for _, e := range all {
		if lastKey != nil && bytes.Equal(e.key, lastKey) {
			continue
		}
		lastKey = e.key
		out = append(out, e)
	}
	return out
}

// The k-way merge writes exactly what the collect-and-sort merge did:
// random tables over a shared key space, with repeated sequence numbers across tables (the earlier input wins the tie) and
// enough bytes for more than one output table.
func TestMergeMatchesSortedReference(t *testing.T) {
	r := newDBRig()
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 6; round++ {
			nIn := 2 + rng.Intn(5)
			keySpace, valMax := 200+rng.Intn(3000), 600
			if round == 5 {
				keySpace, valMax = 3000, 1500
			}
			var inputs []*table
			for i := 0; i < nIn; i++ {
				w := db.writer()
				perm := rng.Perm(keySpace)[:1+rng.Intn(keySpace)]
				sort.Ints(perm)
				for _, k := range perm {
					seq := uint64(rng.Intn(4 * keySpace))
					key := []byte(fmt.Sprintf("key%06d", k))
					w.add(key, seq, bytes.Repeat([]byte{byte('a' + i)}, rng.Intn(valMax)))
				}
				tb, err := db.writeTable(p, w)
				db.idleWriter(w)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, tb)
			}
			var ins [][]entry
			for _, tb := range inputs {
				ins = append(ins, tableEntries(t, p, tb, newBlockCache(4)))
			}
			want := referenceMerge(ins)
			out, err := db.mergeTables(p, inputs)
			if err != nil {
				t.Fatal(err)
			}
			var got []entry
			for _, tb := range out {
				got = append(got, tableEntries(t, p, tb, newBlockCache(4))...)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: merged %d entries, reference %d", round, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if !bytes.Equal(g.key, w.key) || g.seq != w.seq || !bytes.Equal(g.value, w.value) {
					t.Fatalf("round %d entry %d: got %s/%d/%d bytes, want %s/%d/%d bytes",
						round, i, g.key, g.seq, len(g.value), w.key, w.seq, len(w.value))
				}
			}
			if round == 5 && len(out) < 2 {
				t.Errorf("the last round wrote %d output table(s); it should split", len(out))
			}
		}
	})
	r.env.Run()
}

// Once warm, the engine allocates only what Get returns: puts and gets
// across flushes and an L0 compaction allocate at most 1.1 objects per
// Get hit plus a small constant per op (a flush and a compaction open
// tables and logs).
func TestEngineAllocatesOnlyReturnedValues(t *testing.T) {
	const keys = 12000 // 3.5 MB of values: most Gets miss the 1 MB cache
	r := newDBRig()
	cfg := r.config(wal.Sync)
	cfg.MemtableBytes = 256 << 10
	cfg.WALBytes = 512 << 10
	cfg.LevelBase = 64 << 20
	val := make([]byte, 256)
	var mallocs, ops, hits, flushes, compactions uint64
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		keyTab := make([][]byte, keys)
		for i := range keyTab {
			keyTab[i] = []byte(fmt.Sprintf("user%06d", i))
		}
		rng := sim.NewRand(5)
		step := func() bool {
			k := keyTab[rng.Intn(keys)]
			if rng.Intn(2) == 0 {
				if err := db.Put(p, k, val); err != nil {
					t.Errorf("put: %v", err)
					return false
				}
				return true
			}
			if _, ok, err := db.Get(p, k); err != nil {
				t.Errorf("get: %v", err)
				return false
			} else if ok {
				hits++
			}
			return true
		}
		// Warm up: every pool has served a flush and a compaction.
		for db.Stats().Compactions < 2 {
			if !step() {
				return
			}
		}
		st0 := db.Stats()
		hits = 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for ; ops < 20000; ops++ {
			if !step() {
				return
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		st1 := db.Stats()
		flushes, compactions = st1.Flushes-st0.Flushes, st1.Compactions-st0.Compactions
	})
	r.env.Run()
	if t.Failed() {
		return
	}
	if flushes < 2 || compactions < 1 {
		t.Fatalf("%d flushes, %d compactions measured; want >= 2 and >= 1", flushes, compactions)
	}
	bound := 1.1*float64(hits) + 0.1*float64(ops)
	t.Logf("%d ops, %d hits, %d flushes, %d compactions: %d mallocs (bound %.0f)", ops, hits, flushes, compactions, mallocs, bound)
	if float64(mallocs) > bound {
		t.Fatalf("%d allocations over %d ops with %d Get hits; want <= %.0f", mallocs, ops, hits, bound)
	}
}

// A Get sweep and a compaction run while a second proc thrashes the
// block cache with Gets: every cached block either holds is reused by
// the other's misses, so only the copies keep the results exact.
func TestGetSweepAndCompactionUnderCacheThrash(t *testing.T) {
	const n = 4000
	r := newDBRig()
	cfg := r.config(wal.Sync)
	cfg.MemtableBytes = 64 << 10
	cfg.WALBytes = 128 << 10
	cfg.LevelBase = 64 << 20
	val := func(k, ver int) []byte {
		return []byte(fmt.Sprintf("k%d-v%d-%s", k, ver, bytes.Repeat([]byte{'q'}, 150)))
	}
	ver := make([]int, n)
	var db *DB
	done := false
	r.env.Go("t", func(p *sim.Proc) {
		if db = flushedDB(t, p, r, cfg, n, val); db == nil {
			return
		}
		defer func() { done = true }()
		r.env.Go("thrash", func(p *sim.Proc) {
			rng := sim.NewRand(9)
			for !done {
				k := rng.Intn(n)
				got, ok, err := db.Get(p, aliasKey(k))
				// A put of version ver[k] may be in flight.
				if err != nil || !ok || !bytes.Equal(got, val(k, ver[k])) && !(ver[k] > 0 && bytes.Equal(got, val(k, ver[k]-1))) {
					t.Errorf("thrash get %d = %.20q (ok=%v err=%v), want version %d", k, got, ok, err, ver[k])
					return
				}
			}
		})
		sweep := func(stage string) {
			for k := 0; k < n; k++ {
				got, ok, err := db.Get(p, aliasKey(k))
				if err != nil || !ok || !bytes.Equal(got, val(k, ver[k])) {
					t.Errorf("%s: key %d = %.20q (ok=%v err=%v), want version %d", stage, k, got, ok, err, ver[k])
					return
				}
			}
		}
		sweep("flushed")
		before := db.Stats().Compactions
		for k := 0; k < n; k += 3 {
			ver[k]++
			if err := db.Put(p, aliasKey(k), val(k, ver[k])); err != nil {
				t.Errorf("put: %v", err)
				break
			}
		}
		if err := db.FlushAll(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if db.Stats().Compactions == before {
			t.Error("no compaction ran under the thrash")
		}
		sweep("compacted")
	})
	r.env.Run()
}

// A flushed memtable's chunks are spares the moment its flush ends,
// even while a reader holds the read epoch open: Get copies what it
// returns, so no reader holds memtable nodes across a yield.
func TestFlushedMemtableChunksAreSpares(t *testing.T) {
	r := newDBRig()
	cfg := r.config(wal.Sync)
	cfg.MemtableBytes = 16 << 10
	r.env.Go("t", func(p *sim.Proc) {
		db, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; db.imm == nil; k++ {
			if err := db.Put(p, []byte(fmt.Sprintf("a%05d", k)), bytes.Repeat([]byte{'z'}, 200)); err != nil {
				t.Fatal(err)
			}
		}
		nodes, arena := len(db.imm.nodeChunks), len(db.imm.byteChunks)
		db.beginRead()
		defer db.endRead()
		for db.Stats().Flushes == 0 {
			p.Sleep(10 * sim.Microsecond)
		}
		if len(db.memSpares.nodes) != nodes || len(db.memSpares.bytes) != arena {
			t.Fatalf("after the flush: %d node and %d byte chunks spare, want the flushed memtable's %d and %d",
				len(db.memSpares.nodes), len(db.memSpares.bytes), nodes, arena)
		}
	})
	r.env.Run()
}

// A block evicted from the cache lends its buffer to the next miss.
func TestEvictedBlockBufferIsReused(t *testing.T) {
	e := sim.NewEnv()
	fs := testFS(e)
	e.Go("t", func(p *sim.Proc) {
		w := newSSTWriter()
		for i := 0; i < 200; i++ {
			w.add([]byte(fmt.Sprintf("key-%04d", i)), uint64(i+1), bytes.Repeat([]byte{'v'}, 100))
		}
		img := w.finish()
		f, err := fs.Create("sst", int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(p, 0, img); err != nil {
			t.Fatal(err)
		}
		tb, err := openTable(p, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.index) < 3 {
			t.Fatalf("%d blocks; want 3", len(tb.index))
		}
		c := newBlockCache(1)
		raw0, err := tb.readBlock(p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.readBlock(p, c, 1); err != nil { // evicts block 0
			t.Fatal(err)
		}
		raw2, err := tb.readBlock(p, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		if &raw2[0] != &raw0[0] {
			t.Fatal("the miss after an eviction allocated instead of reusing the evicted buffer")
		}
		if want := img[tb.index[2].off : tb.index[2].off+uint64(tb.index[2].length)]; !bytes.Equal(raw2, want) {
			t.Fatal("the reused buffer does not hold block 2")
		}
	})
	e.Run()
}
