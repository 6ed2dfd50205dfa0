// Package lsm is an embedded log-structured merge-tree key-value store
// in the mold of RocksDB 5.x: a skiplist memtable pair (active +
// immutable) with a write-ahead log each, sorted-string-table (SST)
// files with block indexes and bloom filters, leveled compaction and a
// block cache.
//
// It is the NoSQL engine of the paper's case study (Section IV-B):
// BA-WAL replaces its log-file append path, exactly where the paper
// overrode RocksDB's WritableFile.
package lsm

import (
	"bytes"

	"twobssd/internal/sim"
)

const maxHeight = 12

type memNode struct {
	key   []byte
	seq   uint64
	value []byte // nil means tombstone
	next  [maxHeight]*memNode
}

// memtable is a skiplist ordered by (key asc, seq desc) so the newest
// version of a key is encountered first.
type memtable struct {
	head   *memNode
	height int
	rng    sim.Rand // node heights: the skiplist's shape is host-only
	bytes  int
	count  int

	// Arena allocation: nodes and key/value copies are carved from
	// chunks so an add costs ~3 allocations per few hundred entries
	// instead of 3 each. A chunk comes from spares when it has one.
	// release hands every chunk back to spares; the DB calls it once
	// the memtable is flushed and no reader epoch that could still
	// hold its nodes is open.
	nodes      []memNode
	nused      int
	arena      []byte
	nodeChunks [][]memNode
	byteChunks [][]byte
	spares     *memChunks
}

// memChunks holds the node and byte chunks of released memtables for
// later ones to carve from.
type memChunks struct {
	nodes [][]memNode
	bytes [][]byte
}

const (
	memNodeChunk  = 256
	memArenaChunk = 1 << 16
)

// newMemtable returns an empty memtable that carves from spares'
// chunks first (nil: it allocates its own and release keeps none).
func newMemtable(seed int64, spares *memChunks) *memtable {
	return &memtable{
		head:   &memNode{},
		height: 1,
		rng:    sim.NewRand(uint64(seed)),
		spares: spares,
	}
}

func (m *memtable) newNode() *memNode {
	if m.nused == len(m.nodes) {
		if s := m.spares; s != nil && len(s.nodes) > 0 {
			m.nodes, s.nodes = s.nodes[len(s.nodes)-1], s.nodes[:len(s.nodes)-1]
			clear(m.nodes)
		} else {
			m.nodes = make([]memNode, memNodeChunk)
		}
		m.nodeChunks = append(m.nodeChunks, m.nodes)
		m.nused = 0
	}
	n := &m.nodes[m.nused]
	m.nused++
	return n
}

var emptyBytes = []byte{}

// copyArena copies b into the memtable's byte arena.
func (m *memtable) copyArena(b []byte) []byte {
	if len(b) == 0 {
		return emptyBytes // non-nil: nil means tombstone
	}
	if len(b) > len(m.arena) {
		switch s := m.spares; {
		case len(b) > memArenaChunk:
			m.arena = make([]byte, len(b)) // oversized: not recycled
		case s != nil && len(s.bytes) > 0:
			m.arena, s.bytes = s.bytes[len(s.bytes)-1], s.bytes[:len(s.bytes)-1]
			m.byteChunks = append(m.byteChunks, m.arena)
		default:
			m.arena = make([]byte, memArenaChunk)
			m.byteChunks = append(m.byteChunks, m.arena)
		}
	}
	c := m.arena[:len(b):len(b)]
	m.arena = m.arena[len(b):]
	copy(c, b)
	return c
}

// release hands the memtable's chunks to its spares. Nothing may read
// the memtable afterwards.
func (m *memtable) release() {
	if m.spares == nil {
		return
	}
	m.spares.nodes = append(m.spares.nodes, m.nodeChunks...)
	m.spares.bytes = append(m.spares.bytes, m.byteChunks...)
	*m = memtable{}
}

// compare orders by key ascending, then seq descending (newer first).
func compareEntries(aKey []byte, aSeq uint64, bKey []byte, bSeq uint64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aSeq > bSeq:
		return -1
	case aSeq < bSeq:
		return 1
	default:
		return 0
	}
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Uint64()%4 == 0 {
		h++
	}
	return h
}

// add inserts one version. value nil records a tombstone.
func (m *memtable) add(key []byte, seq uint64, value []byte) {
	var prev [maxHeight]*memNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareEntries(x.next[lvl].key, x.next[lvl].seq, key, seq) < 0 {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	n := m.newNode()
	n.key = m.copyArena(key)
	n.seq = seq
	if value != nil {
		n.value = m.copyArena(value)
	}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.bytes += len(key) + len(value) + 32
	m.count++
}

// get returns the newest version of key at or below maxSeq.
// found=false means the memtable has no version; found=true with
// value=nil means the key was deleted.
func (m *memtable) get(key []byte, maxSeq uint64) (value []byte, found bool) {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareEntries(x.next[lvl].key, x.next[lvl].seq, key, maxSeq) < 0 {
			x = x.next[lvl]
		}
	}
	n := x.next[0]
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false
	}
	return n.value, true
}

// first returns the first node (ordered iteration entry point).
func (m *memtable) first() *memNode { return m.head.next[0] }

// seek returns the first node with (key,seq) >= (key, maxSeq).
func (m *memtable) seek(key []byte, maxSeq uint64) *memNode {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareEntries(x.next[lvl].key, x.next[lvl].seq, key, maxSeq) < 0 {
			x = x.next[lvl]
		}
	}
	return x.next[0]
}

// sizeBytes approximates memory use (flush trigger).
func (m *memtable) sizeBytes() int { return m.bytes }

// len returns the number of stored versions.
func (m *memtable) len() int { return m.count }
