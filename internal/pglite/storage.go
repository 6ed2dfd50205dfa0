package pglite

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// bufferPool caches heap pages of one file with LRU write-back.
type bufferPool struct {
	file   *vfs.File
	cap    int
	frames map[int32]*heapPage
	order  []int32
	hitCPU sim.Duration
	hits   *obs.Counter
	misses *obs.Counter
	evicts uint64
}

func newBufferPool(f *vfs.File, capacity int, hitCPU sim.Duration, reg *obs.Registry) *bufferPool {
	if capacity < 4 {
		capacity = 4
	}
	return &bufferPool{
		file: f, cap: capacity, frames: make(map[int32]*heapPage), hitCPU: hitCPU,
		hits: reg.Counter("pglite.pool_hits"), misses: reg.Counter("pglite.pool_misses"),
	}
}

func (bp *bufferPool) touch(id int32) {
	for i, v := range bp.order {
		if v == id {
			bp.order = append(bp.order[:i], bp.order[i+1:]...)
			break
		}
	}
	bp.order = append(bp.order, id)
}

// fetch returns the frame for a page, reading it on a miss and
// evicting (write-back) when over capacity.
func (bp *bufferPool) fetch(p *sim.Proc, id int32) (*heapPage, error) {
	if hp, ok := bp.frames[id]; ok {
		bp.hits.Inc()
		if bp.hitCPU > 0 {
			p.Sleep(bp.hitCPU)
		}
		bp.touch(id)
		return hp, nil
	}
	bp.misses.Inc()
	raw := make([]byte, heapPageBytes)
	if err := bp.file.ReadAt(p, int64(id)*heapPageBytes, raw); err != nil {
		return nil, err
	}
	hp := loadHeapPage(raw)
	bp.frames[id] = hp
	bp.order = append(bp.order, id)
	for len(bp.frames) > bp.cap {
		victim := bp.order[0]
		bp.order = bp.order[1:]
		v := bp.frames[victim]
		delete(bp.frames, victim)
		bp.evicts++
		if v.dirty {
			if err := bp.file.WriteAt(p, int64(victim)*heapPageBytes, v.data); err != nil {
				return nil, err
			}
		}
	}
	return hp, nil
}

// flushAll writes every dirty frame back (checkpoint).
func (bp *bufferPool) flushAll(p *sim.Proc) error {
	for id, hp := range bp.frames {
		if hp.dirty {
			if err := bp.file.WriteAt(p, int64(id)*heapPageBytes, hp.data); err != nil {
				return err
			}
			hp.dirty = false
		}
	}
	return bp.file.Sync(p)
}

// heapStore is one table's heap: pages in a file behind a pool.
type heapStore struct {
	pool     *bufferPool
	pages    int32 // allocated pages
	lastFree int32 // page most likely to have space
}

var (
	errHeapFull  = errors.New("pglite: heap file full")
	errDeadTuple = errors.New("pglite: dead tuple")
)

func newHeapStore(f *vfs.File, poolPages int, hitCPU sim.Duration, reg *obs.Registry) *heapStore {
	return &heapStore{pool: newBufferPool(f, poolPages, hitCPU, reg)}
}

// insert stores a tuple and returns its RID.
func (h *heapStore) insert(p *sim.Proc, tuple []byte) (rid, error) {
	if len(tuple)+8 > heapPageBytes-4 {
		return rid{}, fmt.Errorf("pglite: tuple of %d bytes too large", len(tuple))
	}
	maxPages := int32(h.pool.file.Capacity() / heapPageBytes)
	for try := 0; try < 2; try++ {
		pg := h.lastFree
		if pg >= h.pages {
			if h.pages >= maxPages {
				return rid{}, errHeapFull
			}
			h.pages++
		}
		hp, err := h.pool.fetch(p, pg)
		if err != nil {
			return rid{}, err
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
