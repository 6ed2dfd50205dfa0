package core

import "twobssd/internal/arena"

// frames is the BA-buffer DRAM, one frame per page, carved when the page
// is first written: host memory follows the part of the buffer a run
// touches, not its 8 MB. An untouched page reads as the fill byte — 0
// on a fresh or restored buffer, 0xDE after a power loss — so losing
// DRAM contents at power-off is a new fill byte, not a fill over the
// whole buffer. It is the pcie.Memory behind the MMIO window.
//
// An internal-datapath worker (pin, flush, dump, restore) hands a frame
// to the flash, which reads or lands its bytes after a yield. So it
// takes the frame with page, never view — a pin landing in the page
// meanwhile lands in the frame the worker holds — and busy counts such
// workers. A reset with none busy takes every frame back onto the spare
// list; with one busy, it fills every frame in place and leaves it on
// its page, as DRAM that loses its contents would, so the worker sees
// the bytes a flat buffer would show it.
type frames struct {
	ps     int
	pages  [][]byte // by buffer page; nil while the page is untouched
	fillPg []byte   // one page of the fill byte, what view returns for an untouched page
	spare  [][]byte // frames a reset took back, for the next carve
	mem    arena.Arena
	busy   int // internal-datapath workers holding a frame across a yield
}

func newFrames(bytes, pageSize int) *frames {
	return &frames{ps: pageSize, pages: make([][]byte, bytes/pageSize), fillPg: make([]byte, pageSize)}
}

// Len is the buffer's size in bytes.
func (f *frames) Len() int { return len(f.pages) * f.ps }

// page is page i's frame, carved — a spare frame or a fresh one, holding
// the fill — if the page is untouched. Whoever writes the buffer, or
// holds a page across a yield, takes it through page.
func (f *frames) page(i int) []byte {
	if fr := f.pages[i]; fr != nil {
		return fr
	}
	return f.carve(i)
}

// carve gives untouched page i a frame holding the fill.
func (f *frames) carve(i int) []byte {
	var fr []byte
	if n := len(f.spare); n > 0 {
		fr = f.spare[n-1]
		f.spare[n-1] = nil
		f.spare = f.spare[:n-1]
	} else {
		fr = f.mem.Alloc(f.ps)[:f.ps]
	}
	copy(fr, f.fillPg)
	f.pages[i] = fr
	return fr
}

// view is page i as it reads now: its frame, or the shared fill page
// while it is untouched. It is read-only and not to be held.
func (f *frames) view(i int) []byte {
	if fr := f.pages[i]; fr != nil {
		return fr
	}
	return f.fillPg
}

// reset loses the buffer's contents: every page reads as fill.
func (f *frames) reset(fill byte) {
	if f.fillPg[0] != fill {
		for i := range f.fillPg {
			f.fillPg[i] = fill
		}
	}
	for i, fr := range f.pages {
		switch {
		case fr == nil:
		case f.busy > 0:
			copy(fr, f.fillPg)
		default:
			f.spare = append(f.spare, fr)
			f.pages[i] = nil
		}
	}
}

// ReadAt copies the buffer's bytes at off into dst.
func (f *frames) ReadAt(dst []byte, off int) {
	for len(dst) > 0 {
		n := copy(dst, f.view(off / f.ps)[off%f.ps:])
		dst, off = dst[n:], off+n
	}
}

// WriteAt copies src into the buffer at off, carving the pages it
// touches. A write within one page — every WC burst, as bursts are
// line-aligned — is one division, an index and a copy.
func (f *frames) WriteAt(src []byte, off int) {
	i := off / f.ps
	if o := off - i*f.ps; o+len(src) <= f.ps {
		copy(f.page(i)[o:], src)
		return
	}
	for len(src) > 0 {
		n := copy(f.page(off / f.ps)[off%f.ps:], src)
		src, off = src[n:], off+n
	}
}
