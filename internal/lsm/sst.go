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

func newBloom(n int) *bloom { return &bloom{bits: bloomBits(nil, n), k: 7} }

// bloomBits returns a cleared filter for n keys, in buf if it fits.
func bloomBits(buf []byte, n int) []byte {
	nbits := n * 10
	if nbits < 64 {
		nbits = 64
	}
	if size := (nbits + 7) / 8; cap(buf) >= size {
		buf = buf[:size]
		clear(buf)
	} else {
		buf = make([]byte, size)
	}
	return buf
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
// A writer is reused across images (reset): its buffers keep their
// capacity, so a steady stream of flushes and compactions allocates
// only the tables it opens. The image finish returns is valid until
// the next reset; WriteAt copies it out and openTable re-reads the
// index, so nothing aliases it once writeTable returns.
type sstWriter struct {
	buf    bytes.Buffer
	block  bytes.Buffer
	index  []indexEntry
	hashes []uint32 // crc32 of every key, for the filter
	keys   []byte   // arena for the index entries' first keys
	filter []byte
	first  []byte
	last   []byte
	count  int
}

func newSSTWriter() *sstWriter { return &sstWriter{} }

// reset empties the writer for the next image.
func (w *sstWriter) reset() {
	w.buf.Reset()
	w.block.Reset()
	w.index = w.index[:0]
	w.hashes = w.hashes[:0]
	w.keys = w.keys[:0]
	w.first, w.last = w.first[:0], w.last[:0]
	w.count = 0
}

// add appends one version; keys must arrive in ascending order.
func (w *sstWriter) add(key []byte, seq uint64, value []byte, tombstone bool) {
	if w.count == 0 {
		w.first = append(w.first[:0], key...)
	}
	w.last = append(w.last[:0], key...)
	if w.block.Len() == 0 {
		// A new block: its index entry's first key is carved from the
		// arena. The arena may move as it grows; earlier keys keep the
		// array they were carved from.
		at := len(w.keys)
		w.keys = append(w.keys, key...)
		w.index = append(w.index, indexEntry{firstKey: w.keys[at:len(w.keys):len(w.keys)]})
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
	ie := &w.index[len(w.index)-1]
	ie.off = uint64(w.buf.Len())
	ie.length = uint32(w.block.Len())
	w.buf.Write(w.block.Bytes())
	w.block.Reset()
}

// size is the image's length so far, bar the index, filter and footer.
func (w *sstWriter) size() int { return w.buf.Len() + w.block.Len() }

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

	bl := bloom{bits: bloomBits(w.filter, len(w.hashes)), k: 7}
	w.filter = bl.bits
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
	// The index keys and the filter alias meta, which the table keeps.
	t := &table{file: f, num: num, count: count, dataLen: indexOff, index: make([]indexEntry, 0, nIndex)}
	pos := 0
	for i := 0; i < nIndex; i++ {
		klen := int(binary.LittleEndian.Uint32(meta[pos:]))
		off := binary.LittleEndian.Uint64(meta[pos+4:])
		length := binary.LittleEndian.Uint32(meta[pos+12:])
		key := meta[pos+16 : pos+16+klen : pos+16+klen]
		t.index = append(t.index, indexEntry{firstKey: key, off: off, length: length})
		pos += 16 + klen
	}
	t.filter = &bloom{bits: meta[indexLen:], k: 7}
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

// decodeEntry decodes the entry at data[pos:] in place: its key and
// value alias data (capacity-capped). next is the position of the
// following entry, or -1 at the end of the block — fewer bytes left
// than a header, or the zero key length of a padded tail.
func decodeEntry(data []byte, pos int) (e entry, next int, err error) {
	if pos+16 > len(data) {
		return entry{}, -1, nil
	}
	klen := int(binary.LittleEndian.Uint32(data[pos:]))
	if klen == 0 {
		return entry{}, -1, nil
	}
	vlenRaw := binary.LittleEndian.Uint32(data[pos+4:])
	e.seq = binary.LittleEndian.Uint64(data[pos+8:])
	pos += 16
	if pos+klen > len(data) {
		return entry{}, -1, errCorruptSST
	}
	e.key = data[pos : pos+klen : pos+klen]
	pos += klen
	if vlenRaw == tombstoneLen {
		e.tombstone = true
		return e, pos, nil
	}
	vlen := int(vlenRaw)
	if pos+vlen > len(data) {
		return entry{}, -1, errCorruptSST
	}
	e.value = data[pos : pos+vlen : pos+vlen]
	return e, pos + vlen, nil
}

// blockCache holds raw data blocks, each in an exact-length buffer.
// Eviction is FIFO by first insertion — a get does not refresh an
// entry and a re-put does not requeue it — because hits and misses
// decide which device reads a run makes.
//
// The buffer of an evicted or replaced block goes on a free list, and
// the next miss copies into it. So a block from get or readBlock is
// valid only until its holder's next yield: whoever keeps one across
// a yield copies it first.
type blockCache struct {
	items map[blockKey][]byte
	order []blockKey // ring of cached keys, oldest at head once full
	head  int
	hits  uint64
	miss  uint64
	spans [][]byte // idle page-span read buffers; a read in flight holds its own
	free  [][]byte // buffers of evicted and replaced blocks
}

type blockKey struct {
	num int
	off uint64
}

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &blockCache{items: make(map[blockKey][]byte, capacity), order: make([]blockKey, 0, capacity)}
}

// read returns a copy of the n bytes at off of f. One command reads the
// pages they span into a pooled buffer (an aligned ReadAt lands there),
// and the block is copied into a free buffer, so in steady state a
// miss allocates nothing. Caching the page-span buffer instead would
// cost kv-ba ≈ 9 % of peak RSS.
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
		// Taken after the read's yield: nobody holds a free buffer.
		raw = append(c.freeBuf(int(n)), span[off-first:end-first]...)
	}
	c.spans = append(c.spans, span)
	return raw, err
}

// freeBuf returns an empty buffer with room for n bytes: the last
// freed one if it fits, else a new one (and the freed one is dropped).
func (c *blockCache) freeBuf(n int) []byte {
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	// Data blocks close past blockBytes by at most one entry; room for
	// a quarter more lets a buffer serve nearly any block.
	return make([]byte, 0, max(n, blockBytes+blockBytes/4))
}

func (c *blockCache) get(num int, off uint64) ([]byte, bool) {
	raw, ok := c.items[blockKey{num, off}]
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	return raw, ok
}

func (c *blockCache) put(num int, off uint64, raw []byte) {
	k := blockKey{num, off}
	if old, ok := c.items[k]; ok {
		c.free = append(c.free, old)
	} else if len(c.order) < cap(c.order) {
		c.order = append(c.order, k)
	} else {
		c.free = append(c.free, c.items[c.order[c.head]])
		delete(c.items, c.order[c.head])
		c.order[c.head] = k
		c.head = (c.head + 1) % len(c.order)
	}
	c.items[k] = raw
}

// readBlock returns raw data block idx, through the cache. It is valid
// until the caller's next yield.
func (t *table) readBlock(p *sim.Proc, c *blockCache, idx int) ([]byte, error) {
	ie := t.index[idx]
	if raw, ok := c.get(t.num, ie.off); ok {
		return raw, nil
	}
	raw, err := c.read(p, t.file, int64(ie.off), int64(ie.length))
	if err != nil {
		return nil, err
	}
	c.put(t.num, ie.off, raw)
	return raw, nil
}

// get searches the table for the newest version of key. The entry
// aliases a cached block: it is valid until the caller's next yield.
func (t *table) get(p *sim.Proc, c *blockCache, key []byte) (entry, bool, error) {
	if !t.filter.mayContain(key) {
		return entry{}, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return entry{}, false, nil
	}
	raw, err := t.readBlock(p, c, bi)
	if err != nil {
		return entry{}, false, err
	}
	// Entries sorted by (key asc, seq desc): first match is newest.
	for pos := 0; ; {
		e, next, err := decodeEntry(raw, pos)
		if err != nil || next < 0 {
			return entry{}, false, err
		}
		switch cmp := bytes.Compare(e.key, key); {
		case cmp == 0:
			return e, true, nil
		case cmp > 0:
			return entry{}, false, nil
		}
		pos = next
	}
}
