package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// recovery is the recovery manager (paper Section III-A4): it owns the
// reserved die-parallel NAND dump area and, on power loss, saves the
// mapped BA-buffer windows and the mapping table there using the energy
// stored in the back-up capacitors. On power-up it restores both.
//
// Its work is proportional to the mapping table: a dump programs only
// the pages the table maps, a restore reads only the pages the dumped
// table names. Dumps append at each dump block's program cursor, and
// the area is erased only when it could not take another full-buffer
// dump (the worst case the capacitors are sized for), so several small
// images share one erase.
type recovery struct {
	s          *TwoBSSD
	dumpBlocks []nand.BlockID // reserved blocks, die order
	dumpValid  bool           // a valid dump image exists on NAND
}

const dumpMagic = 0x2B55D001

func newRecovery(s *TwoBSSD) *recovery {
	fc := s.dev.Flash().Config()
	per := s.dev.FTL().Config().ReservedPerDie
	r := &recovery{s: s}
	for d := 0; d < fc.Dies(); d++ {
		for k := 0; k < per; k++ {
			blk := nand.BlockID(d*fc.BlocksPerDie + fc.BlocksPerDie - 1 - k)
			r.dumpBlocks = append(r.dumpBlocks, blk)
		}
	}
	if !r.room() {
		lo, hi := r.span(s.BufferPages(), 0)
		panic(fmt.Sprintf("2bssd: dump block of %d pages < %d needed", fc.PagesPerBlock, hi-lo+1))
	}
	return r
}

// DumpReport describes one power-loss event.
type DumpReport struct {
	LostWCBursts  int          // host-side write-combining bursts lost
	DumpDuration  sim.Duration // firmware dump time on capacitor power
	EnergyUsedJ   float64
	EnergyBudgetJ float64
	Persisted     bool // mapped BA-buffer pages + table image reached NAND
}

// encodeMeta serializes a mapping-table snapshot into one page image.
func (r *recovery) encodeMeta(entries []Entry) []byte {
	buf := make([]byte, r.s.PageSize())
	binary.LittleEndian.PutUint32(buf[0:], dumpMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.s.BufferPages()))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entries)))
	off := 16
	for _, e := range entries {
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.ID))
		binary.LittleEndian.PutUint64(buf[off+4:], uint64(e.Offset))
		binary.LittleEndian.PutUint64(buf[off+12:], uint64(e.LBA))
		binary.LittleEndian.PutUint32(buf[off+20:], uint32(e.Pages))
		off += 24
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[16:off]))
	return buf
}

// decodeMeta rebuilds the mapping table from a dump metadata page.
func (r *recovery) decodeMeta(buf []byte) ([]Entry, error) {
	if binary.LittleEndian.Uint32(buf[0:]) != dumpMagic {
		return nil, errors.New("2bssd: dump metadata magic mismatch")
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	want := binary.LittleEndian.Uint32(buf[12:])
	if got := crc32.ChecksumIEEE(buf[16 : 16+24*n]); got != want {
		return nil, errors.New("2bssd: dump metadata CRC mismatch")
	}
	entries := make([]Entry, 0, n)
	off := 16
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{
			ID:     EID(binary.LittleEndian.Uint32(buf[off:])),
			Offset: int(binary.LittleEndian.Uint64(buf[off+4:])),
			LBA:    ftl.LBA(binary.LittleEndian.Uint64(buf[off+12:])),
			Pages:  int(binary.LittleEndian.Uint32(buf[off+20:])),
		})
		off += 24
	}
	return entries, nil
}

// mappedPages lists the BA-buffer pages a table maps, in buffer order —
// the data pages of its dump image. Entries never overlap in the buffer.
func mappedPages(entries []Entry, pageSize int) []int {
	var pages []int
	for _, e := range entries {
		for i := 0; i < e.Pages; i++ {
			pages = append(pages, e.Offset/pageSize+i)
		}
	}
	slices.Sort(pages)
	return pages
}

// span is the one layout rule of a dump image of n data pages: they are
// dealt out in order, ceil(n/blocks) to a dump block from block 0 on,
// so block b holds image pages [lo, hi). Block 0 also holds the
// metadata page, right after its slice. A table that maps the whole
// buffer fills every block alike.
func (r *recovery) span(n, b int) (lo, hi int) {
	per := (n + len(r.dumpBlocks) - 1) / len(r.dumpBlocks)
	return min(b*per, n), min((b+1)*per, n)
}

// room reports whether every dump block has erased pages for its share
// of a full-buffer dump at its program cursor — whether the capacitors'
// worst case still fits without an erase.
func (r *recovery) room() bool {
	fl := r.s.dev.Flash()
	for b, blk := range r.dumpBlocks {
		lo, hi := r.span(r.s.BufferPages(), b)
		need := hi - lo
		if b == 0 {
			need++ // the metadata page
		}
		if fl.NextPage(blk)+need > fl.Config().PagesPerBlock {
			return false
		}
	}
	return true
}

// blockBase is the first page of a dump block.
func (r *recovery) blockBase(blk nand.BlockID) nand.PPA {
	return nand.PPA(uint64(blk) * uint64(r.s.dev.Flash().Config().PagesPerBlock))
}

// PowerLoss simulates an abrupt power failure. The host's un-synced
// write-combining bursts are lost; the base device's write buffer and
// the mapped BA-buffer pages + mapping table are saved to NAND on
// capacitor energy. If the stored energy cannot cover the dump, the
// image is NOT persisted and the call reports ErrInsufficient —
// committed data in the BA-buffer would be lost, which the recovery
// tests assert never happens with the shipped configuration.
func (s *TwoBSSD) PowerLoss(p *sim.Proc) (DumpReport, error) {
	if err := s.checkPower(); err != nil {
		return DumpReport{}, err
	}
	rep := DumpReport{EnergyBudgetJ: s.cfg.CapacitorEnergyJ()}
	rep.LostWCBursts = s.win.DropPending()

	start := s.env.Now()
	// 1. The base device's protection subsystem drains its own write
	//    buffer to NAND (both comparison SSDs already have this;
	//    Section III-A4).
	if err := s.dev.Drain(p); err != nil {
		return rep, err
	}
	// 2. Firmware dumps the mapped BA-buffer pages and the mapping
	//    table to erased pages of the reserved area, die-parallel.
	if !s.rec.room() {
		return rep, errors.New("2bssd: dump area not armed")
	}
	derr := s.rec.dumpImage(p)
	rep.DumpDuration = sim.Duration(s.env.Now() - start)
	rep.EnergyUsedJ = s.cfg.DumpPowerW * rep.DumpDuration.Seconds()
	s.gDumpEnergy.Set(rep.EnergyUsedJ)

	s.powered = false
	if derr != nil {
		// The dump died mid-flight (injected capacitor cut or a program
		// failure in the reserved area): the image on NAND is torn and
		// must never be restored as if it were complete.
		s.rec.dumpValid = false
		s.scrambleVolatile()
		return rep, fmt.Errorf("%w: %v", ErrDumpTorn, derr)
	}
	if rep.EnergyUsedJ > rep.EnergyBudgetJ {
		// The capacitors drained before the dump finished: the image on
		// NAND is torn and unusable.
		s.rec.dumpValid = false
		s.scrambleVolatile()
		return rep, fmt.Errorf("%w: needed %.1f mJ, have %.1f mJ",
			ErrInsufficient, rep.EnergyUsedJ*1e3, rep.EnergyBudgetJ*1e3)
	}
	s.rec.dumpValid = true
	rep.Persisted = true
	s.scrambleVolatile()
	return rep, nil
}

// scrambleVolatile models DRAM content loss at power-off. The fill
// doubles a filled prefix with copy, at memmove speed: a power cycle
// no longer costs a byte loop over the whole buffer.
func (s *TwoBSSD) scrambleVolatile() {
	s.babuf[0] = 0xDE
	for n := 1; n < len(s.babuf); n *= 2 {
		copy(s.babuf[n:], s.babuf[:n])
	}
	clear(s.table)
}

// dumpImage programs the image of the mapping table as it stands at the
// cut: every page the table maps, then the metadata page, at each dump
// block's program cursor. One firmware worker per dump block programs
// its slice sequentially; blocks sit on distinct dies, so the dump runs
// die-parallel — that is what makes it fast enough for capacitors.
// The device's procs run on during the dump (a BA_FLUSH that completes
// now removes its entry), so the pages programmed and the metadata page
// that names them come from one snapshot, never from the live table.
// A non-nil error means the image on NAND is torn: the injected
// capacitor cut fired mid-dump (pagesDumped is shared across workers,
// so the cut lands after an exact global page count), or a program in
// the reserved area failed.
func (r *recovery) dumpImage(p *sim.Proc) error {
	s := r.s
	ps := s.PageSize()
	fl := s.dev.Flash()
	snap := s.Entries()
	pages := mappedPages(snap, ps)
	meta := r.encodeMeta(snap)
	wg := s.env.NewWaitGroup("2bssd.dump")
	pagesDumped := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for b, blk := range r.dumpBlocks {
		lo, hi := r.span(len(pages), b)
		if lo == hi && b > 0 {
			break // later blocks take nothing either
		}
		wg.Add(1)
		s.env.Go(fmt.Sprintf("2bssd.dump%d", b), func(w *sim.Proc) {
			defer wg.Done()
			at := r.blockBase(blk) + nand.PPA(fl.NextPage(blk))
			for _, i := range pages[lo:hi] {
				if firstErr != nil {
					return
				}
				if s.inj.DumpCut(pagesDumped) {
					fail(errors.New("capacitors cut mid-dump"))
					return
				}
				page := s.babuf[i*ps : (i+1)*ps]
				if err := fl.ProgramPageTagged(w, at, page, integrity.PageCRC(page)); err != nil {
					fail(fmt.Errorf("dump program: %w", err))
					return
				}
				pagesDumped++
				at++
			}
			if b == 0 && firstErr == nil {
				if s.inj.DumpCut(pagesDumped) {
					fail(errors.New("capacitors cut before metadata page"))
					return
				}
				if err := fl.ProgramPageTagged(w, at, meta, integrity.PageCRC(meta)); err != nil {
					fail(fmt.Errorf("dump meta program: %w", err))
					return
				}
				pagesDumped++
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// PowerOn restores the device after a power failure: it reads the dump
// image back into the BA-buffer and rebuilds the mapping table
// (re-gating the pinned LBA ranges). Without a valid dump image the
// BA-buffer comes up empty. The dump area is erased only if it could
// not take another full-buffer dump, so Armed() holds on return.
func (s *TwoBSSD) PowerOn(p *sim.Proc) error {
	if s.powered {
		return errors.New("2bssd: already powered on")
	}
	s.powered = true
	if s.rec.dumpValid {
		if err := s.rec.restoreImage(p); err != nil {
			return err
		}
		s.rec.dumpValid = false
	} else {
		clear(s.babuf)
	}
	if !s.rec.room() {
		s.rec.erase(p)
	}
	return nil
}

// restoreImage loads the metadata page, then exactly the BA-buffer
// pages its entries map; every other buffer page comes up zeroed. The
// image is the last one programmed: the metadata page sits at block 0's
// program cursor and each block's slice right before it.
func (r *recovery) restoreImage(p *sim.Proc) error {
	s := r.s
	ps := s.PageSize()
	fl := s.dev.Flash()

	blk0 := r.dumpBlocks[0]
	metaBuf, tag, tagged, _, err := fl.ReadPageTagged(p, r.blockBase(blk0)+nand.PPA(fl.NextPage(blk0)-1))
	if err == nil && tagged {
		err = integrity.Check(metaBuf, tag)
	}
	if err != nil {
		return fmt.Errorf("2bssd: restore meta: %w", err)
	}
	entries, err := r.decodeMeta(metaBuf)
	if err != nil {
		return err
	}
	pages := mappedPages(entries, ps)
	clear(s.babuf)
	wg := s.env.NewWaitGroup("2bssd.restore")
	var firstErr error
	for b, blk := range r.dumpBlocks {
		lo, hi := r.span(len(pages), b)
		if lo == hi {
			break
		}
		wg.Add(1)
		s.env.Go(fmt.Sprintf("2bssd.rst%d", b), func(w *sim.Proc) {
			defer wg.Done()
			at := r.blockBase(blk) + nand.PPA(fl.NextPage(blk)-(hi-lo))
			if b == 0 {
				at-- // the metadata page follows block 0's slice
			}
			for _, i := range pages[lo:hi] {
				dst := s.babuf[i*ps : (i+1)*ps]
				tag, tagged, _, err := fl.ReadPageTaggedInto(w, at, dst)
				if err == nil && tagged {
					if cerr := integrity.Check(dst, tag); cerr != nil {
						err = fmt.Errorf("2bssd: restore page %d: %w", i, cerr)
					}
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				at++
			}
		})
	}
	wg.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	for _, e := range entries {
		s.table[e.ID] = e
	}
	return nil
}

// erase wipes the dump area so it can take a full-buffer dump again
// (pre-erased, as real PLP firmware keeps it).
func (r *recovery) erase(p *sim.Proc) {
	s := r.s
	wg := s.env.NewWaitGroup("2bssd.erase")
	wg.Add(len(r.dumpBlocks))
	for _, blk := range r.dumpBlocks {
		s.env.Go("2bssd.erase", func(w *sim.Proc) {
			defer wg.Done()
			if s.dev.Flash().NextPage(blk) == 0 {
				return // already erased
			}
			if err := s.dev.Flash().EraseBlock(w, blk); err != nil {
				// An injected erase failure retires a dump block: a
				// later dump that programs it tears, or is refused
				// while the block lacks room. Real config errors still
				// panic.
				if errors.Is(err, nand.ErrEraseFailed) || errors.Is(err, nand.ErrWornOut) {
					return
				}
				panic(fmt.Sprintf("2bssd: dump area erase failed: %v", err))
			}
		})
	}
	wg.Wait(p)
}

// Armed reports whether the dump area can take a full-buffer dump
// without an erase. It holds whenever the device is powered and
// PowerOn has returned.
func (s *TwoBSSD) Armed() bool { return s.rec.room() }

// HasDump reports whether a valid dump image awaits restore.
func (s *TwoBSSD) HasDump() bool { return s.rec.dumpValid }
