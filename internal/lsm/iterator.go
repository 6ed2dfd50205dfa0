package lsm

import (
	"bytes"

	"twobssd/internal/sim"
)

// Iterator streams live key/value pairs in ascending key order, merged
// across the memtables and every SST level. Block reads happen lazily
// (charged to the process) as the iterator advances; memory use is one
// block per source.
type Iterator struct {
	db     *DB
	p      *sim.Proc
	m      merger
	key    []byte
	value  []byte
	valid  bool
	err    error
	closed bool
}

// cursor is one ordered source of (key, seq, value) versions.
type cursor interface {
	// peek returns the current entry; ok=false when exhausted.
	peek() (entry, bool)
	// advance moves past the current entry.
	advance(p *sim.Proc) error
}

// merger is the engine's one merge rule, run by the iterator and by
// compaction: a k-way merge over cursors, each sorted by (key asc, seq
// desc), that yields every key once, at its newest version. It picks
// the lowest key, then the highest seq, then the earliest source.
type merger struct {
	srcs  []cursor
	key   []byte
	value []byte
}

// next returns the newest version of the next key, tombstones included,
// after moving every source past the key's older versions. Its key and
// value are the merger's copies, valid until the next call: advancing a
// source may load a block over the one the version came from.
func (m *merger) next(p *sim.Proc) (entry, bool, error) {
	var best entry
	bestIdx := -1
	for i, src := range m.srcs {
		e, ok := src.peek()
		if !ok {
			continue
		}
		if bestIdx < 0 {
			best, bestIdx = e, i
			continue
		}
		c := bytes.Compare(e.key, best.key)
		if c < 0 || (c == 0 && e.seq > best.seq) {
			best, bestIdx = e, i
		}
	}
	if bestIdx < 0 {
		return entry{}, false, nil
	}
	m.key = append(m.key[:0], best.key...)
	m.value = append(m.value[:0], best.value...)
	best.key = m.key
	if !best.tombstone {
		best.value = m.value
	}
	for _, src := range m.srcs {
		for {
			e, ok := src.peek()
			if !ok || !bytes.Equal(e.key, m.key) {
				break
			}
			if err := src.advance(p); err != nil {
				return entry{}, false, err
			}
		}
	}
	return best, true, nil
}

// memCursor walks a memtable from a start key.
type memCursor struct {
	node *memNode
}

func (c *memCursor) peek() (entry, bool) {
	if c.node == nil {
		return entry{}, false
	}
	return entry{key: c.node.key, seq: c.node.seq, value: c.node.value,
		tombstone: c.node.value == nil}, true
}

func (c *memCursor) advance(*sim.Proc) error {
	if c.node != nil {
		c.node = c.node.next[0]
	}
	return nil
}

// tableCursor walks an SST's blocks in order, decoding in place. With
// a cache it reads each block through it and copies it into data: a
// cached block is valid only until the next yield, and the cursor
// holds its block across the yields of every other source. Without
// one, data already holds every block back to back (compaction's
// scratch), and a load only moves to the next.
type tableCursor struct {
	t     *table
	cache *blockCache
	data  []byte
	block []byte // the current block; nil once exhausted
	end   int    // where the next block starts in data (no cache)
	bi    int    // next block index to load
	cur   entry
	next  int // offset of the entry after cur in block
}

func newTableCursor(p *sim.Proc, t *table, cache *blockCache, start []byte) (*tableCursor, error) {
	c := &tableCursor{t: t, cache: cache}
	bi := t.blockFor(start)
	if bi < 0 {
		bi = 0
	}
	c.bi = bi
	if err := c.load(p); err != nil {
		return nil, err
	}
	// Skip entries below start.
	for {
		e, ok := c.peek()
		if !ok || bytes.Compare(e.key, start) >= 0 {
			break
		}
		if err := c.advance(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// load moves to the first entry of the next non-empty block, if any.
func (c *tableCursor) load(p *sim.Proc) error {
	for c.bi < len(c.t.index) {
		if c.cache != nil {
			raw, err := c.t.readBlock(p, c.cache, c.bi)
			if err != nil {
				return err
			}
			c.data = append(c.data[:0], raw...)
			c.block = c.data
		} else {
			n := int(c.t.index[c.bi].length)
			c.block = c.data[c.end : c.end+n : c.end+n]
			c.end += n
		}
		c.bi++
		e, next, err := decodeEntry(c.block, 0)
		if err != nil {
			return err
		}
		if next >= 0 {
			c.cur, c.next = e, next
			return nil
		}
	}
	c.block = nil
	return nil
}

func (c *tableCursor) peek() (entry, bool) { return c.cur, c.block != nil }

func (c *tableCursor) advance(p *sim.Proc) error {
	if c.block == nil {
		return nil
	}
	e, next, err := decodeEntry(c.block, c.next)
	if err != nil {
		return err
	}
	if next < 0 {
		return c.load(p)
	}
	c.cur, c.next = e, next
	return nil
}

// NewIterator opens an iterator positioned at the first live key >=
// start. Close it to release the read epoch (obsolete SSTs and memtable
// chunks are reclaimed only when no iterator or reader is active).
func (db *DB) NewIterator(p *sim.Proc, start []byte) (*Iterator, error) {
	p.Sleep(db.cfg.ReadCPU)
	db.beginRead()
	it := &Iterator{db: db, p: p}
	it.m.srcs = append(it.m.srcs, &memCursor{node: db.mem.seek(start, ^uint64(0))})
	if db.imm != nil {
		it.m.srcs = append(it.m.srcs, &memCursor{node: db.imm.seek(start, ^uint64(0))})
	}
	for _, level := range db.snapshotLevels() {
		for _, t := range level {
			if t.last != nil && bytes.Compare(t.last, start) < 0 {
				continue
			}
			tc, err := newTableCursor(p, t, db.cache, start)
			if err != nil {
				it.Close()
				return nil, err
			}
			it.m.srcs = append(it.m.srcs, tc)
		}
	}
	it.step()
	return it, nil
}

// step advances to the next live (non-tombstone) key.
func (it *Iterator) step() {
	for {
		e, ok, err := it.m.next(it.p)
		if err != nil {
			it.err = err
		}
		if err != nil || !ok {
			it.valid = false
			return
		}
		if e.tombstone {
			continue // deleted: move on
		}
		it.key, it.value = e.key, e.value
		it.valid = true
		return
	}
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Key returns the current key (valid until Next).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until Next).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Next advances to the following live key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.step()
}

// Close releases the iterator's read epoch. Safe to call twice.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.valid = false
	it.db.endRead(it.p)
}

// Scan returns up to limit live key/value pairs with key >= start, in
// order (limit 0: all of them): a drained Iterator whose pairs are
// copied out.
func (db *DB) Scan(p *sim.Proc, start []byte, limit int) (keys, values [][]byte, err error) {
	it, err := db.NewIterator(p, start)
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	for ; it.Valid() && (limit <= 0 || len(keys) < limit); it.Next() {
		keys = append(keys, append([]byte(nil), it.Key()...))
		values = append(values, append([]byte(nil), it.Value()...))
	}
	return keys, values, it.Err()
}
