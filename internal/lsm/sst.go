package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

// SST layout:
//
//	data blocks   packed entries, ~blockBytes each
//	index         one entry per block: first key, offset, length
//	bloom filter  10 bits/key, k=7
//	footer        fixed 44 bytes at the end
//
// Entry encoding: [4]klen [4]vlen [8]seq [klen]key [vlen]value,
// vlen == tombstoneLen marks a deletion.
const (
	blockBytes   = 4096
	tombstoneLen = 0xFFFFFFFF
	sstMagic     = 0x55713BDD
	footerBytes  = 44
)

var errCorruptSST = errors.New("lsm: corrupt SST")

// bloom is a fixed double-hash Bloom filter.
type bloom struct {
	bits []byte
	k    int
}

func newBloom(n int) *bloom {
	nbits := n * 10
	if nbits < 64 {
		nbits = 64
	}
	return &bloom{bits: make([]byte, (nbits+7)/8), k: 7}
}

func (b *bloom) add(key []byte) { b.addHash(crc32.ChecksumIEEE(key)) }

// addHash sets the bits of the key whose crc32 is h.
func (b *bloom) addHash(h uint32) {
	delta := (h >> 17) | (h << 15)
	n := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		pos := h % n
		b.bits[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

func (b *bloom) mayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h := crc32.ChecksumIEEE(key)
	delta := (h >> 17) | (h << 15)
	n := uint32(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		pos := h % n
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

type indexEntry struct {
	firstKey []byte
	off      uint64
	length   uint32
}

// sstWriter accumulates sorted entries and serializes an SST image.
type sstWriter struct {
	buf        bytes.Buffer
	block      bytes.Buffer
	index      []indexEntry
	hashes     []uint32 // crc32 of every key, for the filter
	first      []byte
	last       []byte
	count      int
	blockFirst []byte
}

func newSSTWriter() *sstWriter { return &sstWriter{} }

// add appends one version; keys must arrive in ascending order.
func (w *sstWriter) add(key []byte, seq uint64, value []byte, tombstone bool) {
	if w.first == nil {
		w.first = append([]byte(nil), key...)
	}
	w.last = append(w.last[:0], key...)
	if w.blockFirst == nil {
		w.blockFirst = append([]byte(nil), key...)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	vlen := uint32(len(value))
	if tombstone {
		vlen = tombstoneLen
	}
	binary.LittleEndian.PutUint32(hdr[4:], vlen)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	w.block.Write(hdr[:])
	w.block.Write(key)
	if !tombstone {
		w.block.Write(value)
	}
	w.hashes = append(w.hashes, crc32.ChecksumIEEE(key))
	w.count++
	if w.block.Len() >= blockBytes {
		w.finishBlock()
	}
}

func (w *sstWriter) finishBlock() {
	if w.block.Len() == 0 {
		return
	}
	w.index = append(w.index, indexEntry{
		firstKey: w.blockFirst,
		off:      uint64(w.buf.Len()),
		length:   uint32(w.block.Len()),
	})
	w.buf.Write(w.block.Bytes())
	w.block.Reset()
	w.blockFirst = nil
}

// finish serializes the SST and returns the complete image.
func (w *sstWriter) finish() []byte {
	w.finishBlock()
	indexOff := uint64(w.buf.Len())
	for _, ie := range w.index {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(ie.firstKey)))
		binary.LittleEndian.PutUint64(hdr[4:], ie.off)
		binary.LittleEndian.PutUint32(hdr[12:], ie.length)
		w.buf.Write(hdr[:])
		w.buf.Write(ie.firstKey)
	}
	indexLen := uint64(w.buf.Len()) - indexOff

	bl := newBloom(len(w.hashes))
	for _, h := range w.hashes {
		bl.addHash(h)
	}
	bloomOff := uint64(w.buf.Len())
	w.buf.Write(bl.bits)

	var footer [footerBytes]byte
	binary.LittleEndian.PutUint64(footer[0:], indexOff)
	binary.LittleEndian.PutUint32(footer[8:], uint32(indexLen))
	binary.LittleEndian.PutUint64(footer[12:], bloomOff)
	binary.LittleEndian.PutUint32(footer[20:], uint32(len(bl.bits)))
	binary.LittleEndian.PutUint64(footer[24:], uint64(w.count))
	binary.LittleEndian.PutUint32(footer[32:], uint32(len(w.index)))
	binary.LittleEndian.PutUint32(footer[36:], crc32.ChecksumIEEE(w.buf.Bytes()[indexOff:bloomOff]))
	binary.LittleEndian.PutUint32(footer[40:], sstMagic)
	w.buf.Write(footer[:])
	return w.buf.Bytes()
}

// table is an open SST: metadata in memory, data blocks on the device.
type table struct {
	file    *vfs.File
	num     int // file number (cache key component)
	index   []indexEntry
	filter  *bloom
	first   []byte
	last    []byte
	count   int
	dataLen int64 // bytes of data-block region
}

// openTable loads footer, index and bloom from a written SST file.
func openTable(p *sim.Proc, f *vfs.File, num int) (*table, error) {
	size := f.Size()
	if size < footerBytes {
		return nil, fmt.Errorf("%w: short file %d", errCorruptSST, size)
	}
	foot := make([]byte, footerBytes)
	if err := f.ReadAt(p, size-footerBytes, foot); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(foot[40:]) != sstMagic {
		return nil, fmt.Errorf("%w: bad magic", errCorruptSST)
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[8:]))
	bloomLen := int64(binary.LittleEndian.Uint32(foot[20:]))
	count := int(binary.LittleEndian.Uint64(foot[24:]))
	nIndex := int(binary.LittleEndian.Uint32(foot[32:]))
	wantCRC := binary.LittleEndian.Uint32(foot[36:])

	meta := make([]byte, indexLen+bloomLen)
	if err := f.ReadAt(p, indexOff, meta); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(meta[:indexLen]) != wantCRC {
		return nil, fmt.Errorf("%w: index CRC", errCorruptSST)
	}
	t := &table{file: f, num: num, count: count, dataLen: indexOff}
	pos := 0
	for i := 0; i < nIndex; i++ {
		klen := int(binary.LittleEndian.Uint32(meta[pos:]))
		off := binary.LittleEndian.Uint64(meta[pos+4:])
		length := binary.LittleEndian.Uint32(meta[pos+12:])
		key := append([]byte(nil), meta[pos+16:pos+16+klen]...)
		t.index = append(t.index, indexEntry{firstKey: key, off: off, length: length})
		pos += 16 + klen
	}
	t.filter = &bloom{bits: append([]byte(nil), meta[indexLen:]...), k: 7}
	if len(t.index) > 0 {
		t.first = t.index[0].firstKey
	}
	// Recover the largest key by scanning the last block lazily when
	// needed; writers record it via setBounds instead.
	return t, nil
}

func (t *table) setBounds(first, last []byte) {
	t.first = append([]byte(nil), first...)
	t.last = append([]byte(nil), last...)
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *table) overlaps(lo, hi []byte) bool {
	if len(t.index) == 0 {
		return false
	}
	if hi != nil && bytes.Compare(t.first, hi) > 0 {
		return false
	}
	if lo != nil && t.last != nil && bytes.Compare(t.last, lo) < 0 {
		return false
	}
	return true
}

// blockFor returns the index position whose block may contain key.
func (t *table) blockFor(key []byte) int {
	lo, hi := 0, len(t.index)-1
	res := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].firstKey, key) <= 0 {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// entry is one decoded SST/memtable version.
type entry struct {
	key       []byte
	seq       uint64
	value     []byte
	tombstone bool
}

// parseBlock decodes all entries of one data block. Keys and values
// alias data (capacity-capped), so the entries live as long as it does.
func parseBlock(data []byte) ([]entry, error) {
	n := 0
	for pos := 0; pos+16 <= len(data) && binary.LittleEndian.Uint32(data[pos:]) != 0; n++ {
		klen, vlen := binary.LittleEndian.Uint32(data[pos:]), binary.LittleEndian.Uint32(data[pos+4:])
		if vlen == tombstoneLen {
			vlen = 0
		}
		pos += 16 + int(klen) + int(vlen)
	}
	out := make([]entry, 0, n)
	pos := 0
	for pos+16 <= len(data) {
		klen := int(binary.LittleEndian.Uint32(data[pos:]))
		vlenRaw := binary.LittleEndian.Uint32(data[pos+4:])
		seq := binary.LittleEndian.Uint64(data[pos+8:])
		if klen == 0 {
			break // zero padding at block tail
		}
		pos += 16
		if pos+klen > len(data) {
			return nil, errCorruptSST
		}
		key := data[pos : pos+klen : pos+klen]
		pos += klen
		e := entry{key: key, seq: seq}
		if vlenRaw == tombstoneLen {
			e.tombstone = true
		} else {
			vlen := int(vlenRaw)
			if pos+vlen > len(data) {
				return nil, errCorruptSST
			}
			e.value = data[pos : pos+vlen : pos+vlen]
			pos += vlen
		}
		out = append(out, e)
	}
	return out, nil
}

// blockCache holds decoded data blocks: per block, the exact-length
// buffer read from the device and the entries that alias it. Eviction
// is FIFO by first insertion — a get does not refresh an entry and a
// re-put does not requeue it — because hits and misses decide which
// device reads a run makes.
type blockCache struct {
	items map[blockKey][]entry
	order []blockKey // ring of cached keys, oldest at head once full
	head  int
	hits  uint64
	miss  uint64
	spans [][]byte // idle page-span read buffers; a read in flight holds its own
}

type blockKey struct {
	num int
	off uint64
}

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &blockCache{items: make(map[blockKey][]entry, capacity), order: make([]blockKey, 0, capacity)}
}

// read returns a copy of the n bytes at off of f. One command reads the
// pages they span into a pooled buffer (an aligned ReadAt lands there),
// so a miss allocates only the exact-length copy the cache keeps.
// Caching the page-span buffer instead would save the copy but not an
// allocation, and costs kv-ba ≈ 9 % of peak RSS.
func (c *blockCache) read(p *sim.Proc, f *vfs.File, off, n int64) ([]byte, error) {
	ps := int64(f.PageSize())
	first, end := off/ps*ps, off+n
	var span []byte
	if k := len(c.spans); k > 0 {
		span, c.spans = c.spans[k-1], c.spans[:k-1]
	}
	if size := (end+ps-1)/ps*ps - first; int64(cap(span)) < size {
		span = make([]byte, size)
	} else {
		span = span[:size]
	}
	err := f.ReadAt(p, first, span)
	var raw []byte
	if err == nil {
		raw = append([]byte(nil), span[off-first:end-first]...)
	}
	c.spans = append(c.spans, span)
	return raw, err
}

func (c *blockCache) get(num int, off uint64) ([]entry, bool) {
	ents, ok := c.items[blockKey{num, off}]
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	return ents, ok
}

func (c *blockCache) put(num int, off uint64, ents []entry) {
	k := blockKey{num, off}
	if _, ok := c.items[k]; !ok {
		if len(c.order) < cap(c.order) {
			c.order = append(c.order, k)
		} else {
			delete(c.items, c.order[c.head])
			c.order[c.head] = k
			c.head = (c.head + 1) % len(c.order)
		}
	}
	c.items[k] = ents
}

// readBlock fetches and decodes one data block, through the cache.
func (t *table) readBlock(p *sim.Proc, c *blockCache, idx int) ([]entry, error) {
	ie := t.index[idx]
	if ents, ok := c.get(t.num, ie.off); ok {
		return ents, nil
	}
	raw, err := c.read(p, t.file, int64(ie.off), int64(ie.length))
	if err != nil {
		return nil, err
	}
	ents, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	c.put(t.num, ie.off, ents)
	return ents, nil
}

// get searches the table for the newest version of key.
func (t *table) get(p *sim.Proc, c *blockCache, key []byte) (entry, bool, error) {
	if !t.filter.mayContain(key) {
		return entry{}, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return entry{}, false, nil
	}
	ents, err := t.readBlock(p, c, bi)
	if err != nil {
		return entry{}, false, err
	}
	// Entries sorted by (key asc, seq desc): first match is newest.
	for _, e := range ents {
		if bytes.Equal(e.key, key) {
			return e, true, nil
		}
	}
	return entry{}, false, nil
}
