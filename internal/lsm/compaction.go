package lsm

import (
	"bytes"
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
	out, err := db.mergeTables(p, all, db.bottomAfter(1))
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
	return db.dropTables(p, all)
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
	out, err := db.mergeTables(p, all, db.bottomAfter(lvl+1))
	if err != nil {
		return err
	}
	db.levels[lvl] = db.levels[lvl][1:]
	next := append(keepDown, out...)
	sort.Slice(next, func(i, j int) bool { return bytes.Compare(next[i].first, next[j].first) < 0 })
	db.levels[lvl+1] = next
	db.stats.Compactions++
	return db.dropTables(p, all)
}

// bottomAfter reports whether any level below lvl holds data — if not,
// tombstones can be dropped during compaction into lvl.
func (db *DB) bottomAfter(lvl int) bool {
	for i := lvl + 1; i < maxLevels; i++ {
		if len(db.levels[i]) > 0 {
			return false
		}
	}
	return true
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
// newest version per key (highest seq). dropTombstones removes
// deletions when merging into the bottom of the tree.
//
// It first reads every block of every input through the cache, in
// input order, copying each input's blocks back to back into a scratch
// buffer the DB keeps: a cached block is valid only until the next
// yield, and the merge below yields whenever an output table is
// written. Then one merger walks the scratch copies into the writer.
func (db *DB) mergeTables(p *sim.Proc, inputs []*table, dropTombstones bool) ([]*table, error) {
	for len(db.mergeBufs) < len(inputs) {
		db.mergeBufs = append(db.mergeBufs, nil)
	}
	m := merger{srcs: make([]cursor, len(inputs))}
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
		if err := c.load(p); err != nil {
			return nil, err
		}
		m.srcs[i] = c
	}
	var out []*table
	w := db.writer()
	defer db.idleWriter(w)
	for {
		e, ok, err := m.next(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if e.tombstone && dropTombstones {
			continue
		}
		w.add(e.key, e.seq, e.value, e.tombstone)
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
func (db *DB) dropTables(p *sim.Proc, tables []*table) error {
	for _, t := range tables {
		if db.activeReaders > 0 {
			db.obsolete = append(db.obsolete, t.file.Name())
			continue
		}
		if err := db.cfg.DataFS.Remove(t.file.Name()); err != nil {
			return err
		}
	}
	_ = p
	return nil
}
