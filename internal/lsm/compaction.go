package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"twobssd/internal/sim"
)

// targetSSTBytes is the output table size compaction aims for.
const targetSSTBytes = 1 << 20

// levelLimit returns the max total bytes allowed at a level
// (L1 = LevelBase, each level below x10).
func (db *DB) levelLimit(lvl int) int64 {
	limit := db.cfg.LevelBase
	for i := 1; i < lvl; i++ {
		limit *= 10
	}
	return limit
}

func levelBytes(tables []*table) int64 {
	var n int64
	for _, t := range tables {
		n += t.file.Size()
	}
	return n
}

// maybeCompact runs leveled compaction until the tree is in shape.
// It is invoked from flush processes, one at a time (compactLock); the
// write lock is NOT held, and readers tolerate table-set swaps because
// Go slices are replaced atomically between sim yields.
func (db *DB) maybeCompact(p *sim.Proc) error {
	for {
		switch {
		case len(db.levels[0]) >= db.cfg.L0Trigger:
			if err := db.compactL0(p); err != nil {
				return err
			}
		default:
			lvl := db.overfullLevel()
			if lvl < 0 {
				return nil
			}
			if err := db.compactLevel(p, lvl); err != nil {
				return err
			}
		}
	}
}

func (db *DB) overfullLevel() int {
	for lvl := 1; lvl < maxLevels-1; lvl++ {
		if levelBytes(db.levels[lvl]) > db.levelLimit(lvl) {
			return lvl
		}
	}
	return -1
}

// compactL0 merges every L0 table plus the overlapping L1 tables into
// fresh L1 tables.
func (db *DB) compactL0(p *sim.Proc) error {
	inputs := append([]*table(nil), db.levels[0]...)
	lo, hi := keyRange(inputs)
	var keepL1, mergeL1 []*table
	for _, t := range db.levels[1] {
		if t.overlaps(lo, hi) {
			mergeL1 = append(mergeL1, t)
		} else {
			keepL1 = append(keepL1, t)
		}
	}
	// L0 tables: newest last in the slice; merge priority = newer wins.
	// Assign priority by position: later L0 tables override earlier
	// ones, all L0 overrides L1 (seq numbers already encode this).
	all := append(append([]*table(nil), mergeL1...), inputs...)
	out, err := db.mergeTables(p, all)
	if err != nil {
		return err
	}
	// Retire only the merged prefix: a flush may have installed a newer
	// L0 table while the merge yielded.
	db.levels[0] = db.levels[0][len(inputs):]
	newL1 := append(keepL1, out...)
	sort.Slice(newL1, func(i, j int) bool { return bytes.Compare(newL1[i].first, newL1[j].first) < 0 })
	db.levels[1] = newL1
	db.stats.Compactions++
	return db.dropTables(all)
}

// compactLevel pushes one table from lvl into lvl+1.
func (db *DB) compactLevel(p *sim.Proc, lvl int) error {
	src := db.levels[lvl][0]
	var keepDown, mergeDown []*table
	for _, t := range db.levels[lvl+1] {
		if t.overlaps(src.first, src.last) {
			mergeDown = append(mergeDown, t)
		} else {
			keepDown = append(keepDown, t)
		}
	}
	all := append([]*table{src}, mergeDown...)
	out, err := db.mergeTables(p, all)
	if err != nil {
		return err
	}
	db.levels[lvl] = db.levels[lvl][1:]
	next := append(keepDown, out...)
	sort.Slice(next, func(i, j int) bool { return bytes.Compare(next[i].first, next[j].first) < 0 })
	db.levels[lvl+1] = next
	db.stats.Compactions++
	return db.dropTables(all)
}

// Audit checks the shape of the tree: every table's first key is at
// most its last, and below L0 each level's tables are sorted by first
// key and no two of them overlap (L0 tables are in age order and may
// overlap). A compaction builds a level's new table set before it
// installs it, without yielding in between, so the invariants hold
// whenever a proc can run. Audit does not yield, writes nothing to the
// registry and allocates only the error it returns.
func (db *DB) Audit() error {
	for lvl := 0; lvl < maxLevels; lvl++ {
		tables := db.levels[lvl]
		for i, t := range tables {
			if bytes.Compare(t.first, t.last) > 0 {
				return fmt.Errorf("lsm: L%d table %s: first key %q after last %q", lvl, t.file.Name(), t.first, t.last)
			}
			if lvl == 0 || i == 0 {
				continue
			}
			prev := tables[i-1]
			if bytes.Compare(prev.first, t.first) > 0 {
				return fmt.Errorf("lsm: L%d tables %s and %s out of key order", lvl, prev.file.Name(), t.file.Name())
			}
			if bytes.Compare(prev.last, t.first) >= 0 {
				return fmt.Errorf("lsm: L%d tables %s and %s overlap", lvl, prev.file.Name(), t.file.Name())
			}
		}
	}
	return nil
}

func keyRange(tables []*table) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.first, lo) < 0 {
			lo = t.first
		}
		if hi == nil || bytes.Compare(t.last, hi) > 0 {
			hi = t.last
		}
	}
	return
}

// mergeTables merges the inputs into target-sized SSTs that keep the
// newest version per key (highest seq).
//
// It first reads every block of every input through the cache, in
// input order, copying each input's blocks back to back into a scratch
// buffer the DB keeps: a cached block is valid only until the next
// yield, and the merge below yields whenever an output table is
// written. Then one merger walks the scratch copies into the writer.
func (db *DB) mergeTables(p *sim.Proc, inputs []*table) ([]*table, error) {
	for len(db.mergeBufs) < len(inputs) {
		db.mergeBufs = append(db.mergeBufs, nil)
	}
	m := merger{srcs: make([]*tableCursor, len(inputs))}
	for i, t := range inputs {
		buf := db.mergeBufs[i][:0]
		for bi := range t.index {
			raw, err := t.readBlock(p, db.cache, bi)
			if err != nil {
				return nil, err
			}
			buf = append(buf, raw...)
		}
		db.mergeBufs[i] = buf
		c := &tableCursor{t: t, data: buf}
		if err := c.load(); err != nil {
			return nil, err
		}
		m.srcs[i] = c
	}
	var out []*table
	w := db.writer()
	defer db.idleWriter(w)
	for {
		e, ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		w.add(e.key, e.seq, e.value)
		if w.size() >= targetSSTBytes {
			t, err := db.writeTable(p, w)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	if w.count > 0 {
		t, err := db.writeTable(p, w)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// dropTables retires compaction inputs. Files are removed immediately
// when no reader is active, otherwise queued for reclamation at the
// last reader's exit.
func (db *DB) dropTables(tables []*table) error {
	for _, t := range tables {
		if db.activeReaders > 0 {
			db.obsolete = append(db.obsolete, t.file.Name())
			continue
		}
		if err := db.cfg.DataFS.Remove(t.file.Name()); err != nil {
			return err
		}
	}
	return nil
}

// merger is the engine's one merge rule: a k-way merge over table
// cursors, each sorted by (key asc, seq desc), that yields every key
// once, at its newest version. It picks the lowest key, then the
// highest seq, then the earliest source.
type merger struct {
	srcs  []*tableCursor
	key   []byte
	value []byte
}

// next returns the newest version of the next key, after moving every
// source past the key's older versions. Its key and value are the
// merger's copies, valid until the next call.
func (m *merger) next() (entry, bool, error) {
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
	best.key, best.value = m.key, m.value
	for _, src := range m.srcs {
		for {
			e, ok := src.peek()
			if !ok || !bytes.Equal(e.key, m.key) {
				break
			}
			if err := src.advance(); err != nil {
				return entry{}, false, err
			}
		}
	}
	return best, true, nil
}

// tableCursor walks an SST's blocks in order, decoding in place. data
// holds every block of the table back to back (compaction's scratch),
// and a load moves to the next.
type tableCursor struct {
	t     *table
	data  []byte
	block []byte // the current block; nil once exhausted
	end   int    // where the next block starts in data
	bi    int    // next block index to load
	cur   entry
	next  int // offset of the entry after cur in block
}

// load moves to the first entry of the next non-empty block, if any.
func (c *tableCursor) load() error {
	for c.bi < len(c.t.index) {
		n := int(c.t.index[c.bi].length)
		c.block = c.data[c.end : c.end+n : c.end+n]
		c.end += n
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

func (c *tableCursor) advance() error {
	if c.block == nil {
		return nil
	}
	e, next, err := decodeEntry(c.block, c.next)
	if err != nil {
		return err
	}
	if next < 0 {
		return c.load()
	}
	c.cur, c.next = e, next
	return nil
}
