package pglite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

const heapPageBytes = 4096

// Slotted heap page layout:
//
//	[2] slot count
//	[2] free-space offset (start of unused area)
//	slots grow from the end: per slot [2] offset [2] length (0 = dead)
//	tuple bytes grow from offset 4 upward.
type heapPage struct {
	data  []byte
	dirty bool
}

func loadHeapPage(data []byte) *heapPage {
	hp := &heapPage{data: data}
	if binary.LittleEndian.Uint16(hp.data[2:]) < 4 {
		binary.LittleEndian.PutUint16(hp.data[2:], 4) // fresh page
	}
	return hp
}

func (hp *heapPage) slotCount() int { return int(binary.LittleEndian.Uint16(hp.data[0:])) }
func (hp *heapPage) freeOff() int   { return int(binary.LittleEndian.Uint16(hp.data[2:])) }

func (hp *heapPage) slotPos(i int) int { return heapPageBytes - 4*(i+1) }

func (hp *heapPage) slot(i int) (off, length int) {
	pos := hp.slotPos(i)
	return int(binary.LittleEndian.Uint16(hp.data[pos:])), int(binary.LittleEndian.Uint16(hp.data[pos+2:]))
}

func (hp *heapPage) setSlot(i, off, length int) {
	pos := hp.slotPos(i)
	binary.LittleEndian.PutUint16(hp.data[pos:], uint16(off))
	binary.LittleEndian.PutUint16(hp.data[pos+2:], uint16(length))
}

// freeBytes reports the contiguous space left for one more tuple+slot.
func (hp *heapPage) freeBytes() int {
	return hp.slotPos(hp.slotCount()) - hp.freeOff() - 4
}

// insert places a tuple and returns its slot. Caller checked space.
func (hp *heapPage) insert(tuple []byte) int16 {
	off := hp.freeOff()
	copy(hp.data[off:], tuple)
	slot := hp.slotCount()
	hp.setSlot(slot, off, len(tuple))
	binary.LittleEndian.PutUint16(hp.data[0:], uint16(slot+1))
	binary.LittleEndian.PutUint16(hp.data[2:], uint16(off+len(tuple)))
	hp.dirty = true
	return int16(slot)
}

// read returns the tuple bytes of a slot (nil if dead).
func (hp *heapPage) read(slot int16) []byte {
	if int(slot) >= hp.slotCount() {
		return nil
	}
	off, length := hp.slot(int(slot))
	if length == 0 {
		return nil
	}
	return hp.data[off : off+length]
}

// kill marks a slot dead.
func (hp *heapPage) kill(slot int16) {
	off, _ := hp.slot(int(slot))
	hp.setSlot(int(slot), off, 0)
	hp.dirty = true
}

// bufferPool holds every heap page of one file it has touched, and
// writes the dirty ones back only at a checkpoint: it never evicts, as
// in the paper's Fig 9 setup, where user data stays in DRAM and only the
// log reaches the device under test.
type bufferPool struct {
	file   *vfs.File
	frames map[int32]*heapPage
	hitCPU sim.Duration
	hits   *obs.Counter
	misses *obs.Counter
}

func newBufferPool(f *vfs.File, hitCPU sim.Duration, reg *obs.Registry) *bufferPool {
	return &bufferPool{
		file: f, frames: make(map[int32]*heapPage), hitCPU: hitCPU,
		hits: reg.Counter("pglite.pool_hits"), misses: reg.Counter("pglite.pool_misses"),
	}
}

// fetch returns the frame for a page, reading it on a miss.
func (bp *bufferPool) fetch(p *sim.Proc, id int32) (*heapPage, error) {
	if hp, ok := bp.frames[id]; ok {
		bp.hits.Inc()
		if bp.hitCPU > 0 {
			p.Sleep(bp.hitCPU)
		}
		return hp, nil
	}
	bp.misses.Inc()
	raw := make([]byte, heapPageBytes)
	if err := bp.file.ReadAt(p, int64(id)*heapPageBytes, raw); err != nil {
		return nil, err
	}
	hp := loadHeapPage(raw)
	bp.frames[id] = hp
	return hp, nil
}

// fresh returns an empty frame for a page the heap has never used,
// without reading it: whatever the media holds there is not this
// heap's. It counts as a miss, a frame the pool did not hold.
func (bp *bufferPool) fresh(id int32) *heapPage {
	bp.misses.Inc()
	hp := loadHeapPage(make([]byte, heapPageBytes))
	bp.frames[id] = hp
	return hp
}

// flushAll writes every dirty frame back, in page order: the order
// decides where the pages land on flash, and so what reading them back
// costs. The caller syncs.
func (bp *bufferPool) flushAll(p *sim.Proc) error {
	ids := make([]int32, 0, len(bp.frames))
	for id := range bp.frames {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if hp := bp.frames[id]; hp.dirty {
			if err := bp.file.WriteAt(p, int64(id)*heapPageBytes, hp.data); err != nil {
				return err
			}
			hp.dirty = false
		}
	}
	return nil
}

// heapStore is one table's heap: pages in a file behind a pool. The
// file's last page holds the high-water mark: the pages allocated at the
// last checkpoint, all of them durable then. A page past the mark may
// hold bytes of an earlier life, written back by a checkpoint the cut
// stopped before its mark write; a reopen never reads it, and its first
// use starts it empty.
type heapStore struct {
	pool     *bufferPool
	pages    int32 // allocated pages
	lastFree int32 // page most likely to have space
	mark     int32 // high-water mark on media
}

var (
	errHeapFull  = errors.New("pglite: heap file full")
	errDeadTuple = errors.New("pglite: dead tuple")
)

func newHeapStore(f *vfs.File, hitCPU sim.Duration, reg *obs.Registry) *heapStore {
	return &heapStore{pool: newBufferPool(f, hitCPU, reg)}
}

// maxPages is the heap file's capacity in pages, less the mark page.
func (h *heapStore) maxPages() int32 { return int32(h.pool.file.Capacity()/heapPageBytes) - 1 }

// markOff is the byte offset of the mark page.
func (h *heapStore) markOff() int64 { return int64(h.maxPages()) * heapPageBytes }

// checkpoint writes every dirty page back and then, when it moved, the
// high-water mark, and syncs the file: what the mark covers is durable
// before the mark is.
func (h *heapStore) checkpoint(p *sim.Proc) error {
	if err := h.pool.flushAll(p); err != nil {
		return err
	}
	if h.pages != h.mark {
		page := make([]byte, heapPageBytes)
		binary.LittleEndian.PutUint32(page, uint32(h.pages))
		if err := h.pool.file.WriteAt(p, h.markOff(), page); err != nil {
			return err
		}
		h.mark = h.pages
	}
	return h.pool.file.Sync(p)
}

// scanChunkPages is how many heap pages a reopen's scan reads per
// command.
const scanChunkPages = 64

// scan rebuilds a reopened heap's page count and its index from the
// pages under the high-water mark. A key live in two tuples keeps the
// first one found and the other is killed: only work after the last
// checkpoint can leave two live versions, and the XLOG replay that
// follows re-applies that key, as it does every key written past the
// mark.
func (h *heapStore) scan(p *sim.Proc, idx *btree) error {
	buf := make([]byte, scanChunkPages*heapPageBytes)
	if err := h.pool.file.ReadAt(p, h.markOff(), buf[:heapPageBytes]); err != nil {
		return err
	}
	h.mark = min(int32(binary.LittleEndian.Uint32(buf)), h.maxPages())
	var dups []rid
	for first := int32(0); first < h.mark; first += scanChunkPages {
		chunk := buf[:min(scanChunkPages, h.mark-first)*heapPageBytes]
		if err := h.pool.file.ReadAt(p, int64(first)*heapPageBytes, chunk); err != nil {
			return err
		}
		for i := int32(0); int(i)*heapPageBytes < len(chunk); i++ {
			hp := heapPage{data: chunk[i*heapPageBytes : (i+1)*heapPageBytes]}
			if hp.slotCount() == 0 {
				continue
			}
			h.pages = first + i + 1
			for slot := int16(0); int(slot) < hp.slotCount(); slot++ {
				t := hp.read(slot)
				if t == nil {
					continue
				}
				key, _ := decodeTuple(t)
				r := rid{page: first + i, slot: slot}
				if _, ok := idx.Get(key); ok {
					dups = append(dups, r)
					continue
				}
				idx.Put(key, r)
			}
		}
	}
	h.lastFree = max(h.pages-1, 0)
	for _, r := range dups {
		if err := h.kill(p, r); err != nil {
			return err
		}
	}
	return nil
}

// insert stores a tuple and returns its RID.
func (h *heapStore) insert(p *sim.Proc, tuple []byte) (rid, error) {
	if len(tuple)+8 > heapPageBytes-4 {
		return rid{}, fmt.Errorf("pglite: tuple of %d bytes too large", len(tuple))
	}
	for try := 0; try < 2; try++ {
		pg := h.lastFree
		var hp *heapPage
		if pg >= h.pages {
			if h.pages >= h.maxPages() {
				return rid{}, errHeapFull
			}
			h.pages++
			hp = h.pool.fresh(pg)
		} else {
			var err error
			if hp, err = h.pool.fetch(p, pg); err != nil {
				return rid{}, err
			}
		}
		if hp.freeBytes() >= len(tuple) {
			slot := hp.insert(tuple)
			return rid{page: pg, slot: slot}, nil
		}
		h.lastFree++
	}
	return rid{}, errHeapFull
}

// read fetches a tuple by RID. The returned bytes alias the page frame:
// tuples are never overwritten in place (updates insert a new version
// and kill the old slot, and the slot directory lives at the page tail),
// so the bytes stay stable, but callers must not modify them.
func (h *heapStore) read(p *sim.Proc, r rid) ([]byte, error) {
	hp, err := h.pool.fetch(p, r.page)
	if err != nil {
		return nil, err
	}
	t := hp.read(r.slot)
	if t == nil {
		return nil, fmt.Errorf("%w at %v", errDeadTuple, r)
	}
	return t, nil
}

// kill marks a tuple dead.
func (h *heapStore) kill(p *sim.Proc, r rid) error {
	hp, err := h.pool.fetch(p, r.page)
	if err != nil {
		return err
	}
	hp.kill(r.slot)
	return nil
}
