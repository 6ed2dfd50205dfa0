// Package pglite is a miniature PostgreSQL-style relational engine:
// slotted heap pages behind a buffer pool, a B-tree primary index, and
// an XLOG write-ahead log with the commit modes of the paper's Fig 5.
// It is the SQL engine of the case study: the paper's BA-WAL patch
// replaced XLOG's log-buffer write path, sizing each log segment at
// half the BA-buffer for double buffering (Section IV-B).
package pglite

import "bytes"

// rid addresses a tuple: heap page number and slot within it.
type rid struct {
	page int32
	slot int16
}

const btreeOrder = 32 // max keys per node

type btreeNode struct {
	leaf     bool
	keys     [][]byte
	vals     []rid        // leaf only
	children []*btreeNode // interior only
	next     *btreeNode   // leaf chain for range scans
}

// btree is an in-memory B+-tree mapping key bytes to heap RIDs — the
// primary index of a table.
type btree struct {
	root *btreeNode
	size int
}

func newBTree() *btree {
	return &btree{root: &btreeNode{leaf: true}}
}

// search finds the leaf that should hold key.
func (t *btree) searchLeaf(key []byte) *btreeNode {
	n := t.root
	for !n.leaf {
		i := upperBound(n.keys, key)
		n = n.children[i]
	}
	return n
}

// upperBound returns the count of keys <= key (child index to follow).
func upperBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the rid for key.
func (t *btree) Get(key []byte) (rid, bool) {
	leaf := t.searchLeaf(key)
	i := lowerBound(leaf.keys, key)
	if i < len(leaf.keys) && bytes.Equal(leaf.keys[i], key) {
		return leaf.vals[i], true
	}
	return rid{}, false
}

// Put inserts or replaces key -> r.
func (t *btree) Put(key []byte, r rid) {
	k := append([]byte(nil), key...)
	promoted, newChild := t.insert(t.root, k, r)
	if newChild != nil {
		t.root = &btreeNode{
			keys:     [][]byte{promoted},
			children: []*btreeNode{t.root, newChild},
		}
	}
}

// insert returns a promoted separator key and new right sibling when
// the child split.
func (t *btree) insert(n *btreeNode, key []byte, r rid) ([]byte, *btreeNode) {
	if n.leaf {
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = r // replace
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, rid{})
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = r
		t.size++
		if len(n.keys) <= btreeOrder {
			return nil, nil
		}
		return t.splitLeaf(n)
	}
	ci := upperBound(n.keys, key)
	promoted, newChild := t.insert(n.children[ci], key, r)
	if newChild == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.keys) <= btreeOrder {
		return nil, nil
	}
	return t.splitInterior(n)
}

func (t *btree) splitLeaf(n *btreeNode) ([]byte, *btreeNode) {
	mid := len(n.keys) / 2
	right := &btreeNode{
		leaf: true,
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([]rid(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *btree) splitInterior(n *btreeNode) ([]byte, *btreeNode) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := &btreeNode{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return promoted, right
}

// Delete removes key; returns whether it existed. (Underflow is not
// rebalanced — acceptable for an index that mostly grows, and keys
// remain ordered and findable.)
func (t *btree) Delete(key []byte) bool {
	leaf := t.searchLeaf(key)
	i := lowerBound(leaf.keys, key)
	if i >= len(leaf.keys) || !bytes.Equal(leaf.keys[i], key) {
		return false
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
	t.size--
	return true
}

// Ascend visits keys >= start in order until fn returns false.
func (t *btree) Ascend(start []byte, fn func(key []byte, r rid) bool) {
	leaf := t.searchLeaf(start)
	i := lowerBound(leaf.keys, start)
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return
			}
		}
		leaf = leaf.next
		i = 0
	}
}
