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
// stored in the back-up capacitors. On power-up it restores both, from
// what the dump area holds alone.
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

	// One firmware worker per dump block (index b of dumpBlocks).
	dumps    *sim.Fan[dumpCmd]
	restores *sim.Fan[restoreCmd]
	erases   *sim.Fan[struct{}]
}

// dumpMagic opens a metadata page and is XORed into its out-of-band
// tag, so no BA-buffer page, tagged with its plain CRC, passes for one.
const dumpMagic = 0x2B55D001

// metaBytes is the length of a metadata page's image: magic, buffer
// pages, entry count and CRC, a cursor per dump block, n entries.
func metaBytes(n, blocks int) int { return 16 + 4*blocks + 24*n }

func newRecovery(s *TwoBSSD) *recovery {
	fc := s.dev.Flash().Config()
	per := s.dev.FTL().Config().ReservedPerDie
	r := &recovery{s: s}
	r.dumps = sim.NewFan(s.env, "2bssd.dump", r.dumpBlock)
	r.restores = sim.NewFan(s.env, "2bssd.rst", r.restoreBlock)
	r.erases = sim.NewFan(s.env, "2bssd.erase", r.eraseBlock)
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
}

// encodeMeta serializes a mapping-table snapshot and the cursors the
// dump blocks will have once the dump completes into one page image.
func (r *recovery) encodeMeta(entries []Entry, cursors []int) []byte {
	buf := make([]byte, r.s.PageSize())
	binary.LittleEndian.PutUint32(buf[0:], dumpMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.s.BufferPages()))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(entries)))
	off := 16
	for _, c := range cursors {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c))
		off += 4
	}
	for _, e := range entries {
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.ID))
		binary.LittleEndian.PutUint64(buf[off+4:], uint64(e.Offset))
		binary.LittleEndian.PutUint64(buf[off+12:], uint64(e.LBA))
		binary.LittleEndian.PutUint32(buf[off+20:], uint32(e.Pages))
		off += 24
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[16:]))
	return buf
}

// decodeMeta rebuilds the mapping table and the cursors from a dump
// metadata page. It checks before it slices: the count fits the table
// and the page, and every entry lies inside the table and the buffer.
func (r *recovery) decodeMeta(buf []byte) ([]Entry, []int, error) {
	le := binary.LittleEndian
	nb, size := len(r.dumpBlocks), uint64(r.s.frames.Len())
	if le.Uint32(buf[0:]) != dumpMagic || int(le.Uint32(buf[4:])) != r.s.BufferPages() {
		return nil, nil, errors.New("2bssd: not a dump metadata page")
	}
	n := le.Uint32(buf[8:])
	if n > uint32(len(r.s.table)) || metaBytes(int(n), nb) > len(buf) {
		return nil, nil, errors.New("2bssd: dump metadata entry count out of range")
	}
	if crc32.ChecksumIEEE(buf[16:]) != le.Uint32(buf[12:]) {
		return nil, nil, errors.New("2bssd: dump metadata CRC mismatch")
	}
	cursors := make([]int, nb)
	for b := range cursors {
		cursors[b] = int(le.Uint32(buf[16+4*b:]))
	}
	entries := make([]Entry, n)
	for i := range entries {
		e := buf[16+4*nb+24*i:]
		id, off, pages := le.Uint32(e), le.Uint64(e[4:]), le.Uint32(e[20:])
		if id >= uint32(len(r.s.table)) || off > size || off+uint64(pages)*uint64(r.s.PageSize()) > size {
			return nil, nil, errors.New("2bssd: dump metadata entry out of range")
		}
		entries[i] = Entry{ID: EID(id), Offset: int(off), LBA: ftl.LBA(le.Uint64(e[12:])), Pages: int(pages)}
	}
	return entries, cursors, nil
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

// spanned is how many dump blocks an image of n data pages spans: the
// blocks from 0 on whose span is not empty.
func (r *recovery) spanned(n int) int {
	per := max(1, (n+len(r.dumpBlocks)-1)/len(r.dumpBlocks))
	return (n + per - 1) / per
}

// cursorsAfter is every dump block's program cursor once a dump of n
// data pages completes: its slice past where it stands now, and block
// 0's metadata page after that.
func (r *recovery) cursorsAfter(n int) []int {
	fl := r.s.dev.Flash()
	cursors := make([]int, len(r.dumpBlocks))
	for b, blk := range r.dumpBlocks {
		lo, hi := r.span(n, b)
		cursors[b] = fl.NextPage(blk) + hi - lo
	}
	cursors[0]++
	return cursors
}

// room reports whether every dump block has erased pages for its share
// of a full-buffer dump at its program cursor — whether the capacitors'
// worst case still fits without an erase — and the last block for the
// page that retires the image, with block 0 behind none (lead). The
// last block's share and growth per cycle are at most block 0's, so
// the retirement page leaves the erase cadence as it was.
func (r *recovery) room() bool {
	ppb := r.s.dev.Flash().Config().PagesPerBlock
	cursors := r.cursorsAfter(r.s.BufferPages())
	cursors[len(cursors)-1]++
	return !slices.ContainsFunc(cursors, func(c int) bool { return c > ppb }) && r.lead() >= 0
}

// lead is how far block 0's cursor is past every other dump block's
// (and its own start). A whole dump that starts with block 0 behind no
// block leaves it ahead of all, as block 0 takes the largest slice and
// the metadata page; a torn one can leave it level or behind.
func (r *recovery) lead() int {
	fl := r.s.dev.Flash()
	c0 := fl.NextPage(r.dumpBlocks[0])
	lead := c0
	for _, blk := range r.dumpBlocks[1:] {
		lead = min(lead, c0-fl.NextPage(blk))
	}
	return lead
}

// blockBase is the first page of a dump block.
func (r *recovery) blockBase(blk nand.BlockID) nand.PPA {
	return nand.PPA(uint64(blk) * uint64(r.s.dev.Flash().Config().PagesPerBlock))
}

// PowerLoss simulates an abrupt power failure. The host's un-synced
// write-combining bursts are lost; the base device's write buffer and
// the mapped BA-buffer pages + mapping table are saved to NAND on
// capacitor energy. If that energy runs out first, the dump stops
// there, torn, and the call reports ErrInsufficient — committed data
// in the BA-buffer would be lost, which the recovery tests assert
// never happens with the shipped configuration.
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
	//    table to erased pages of the reserved area, die-parallel,
	//    until the reserve runs out.
	if !s.rec.room() {
		return rep, errors.New("2bssd: dump area not armed")
	}
	end := start + sim.Time(rep.EnergyBudgetJ/dumpPowerW*float64(sim.Second))
	// Collection takes no new victim while the dump runs: what is left
	// of the reserve is the dump's.
	s.dev.FTL().StopGC()
	err := s.rec.dumpImage(p, end)
	s.dev.FTL().StartGC()
	rep.DumpDuration = sim.Duration(s.env.Now() - start)
	rep.EnergyUsedJ = dumpPowerW * rep.DumpDuration.Seconds()
	s.gDumpEnergy.Set(rep.EnergyUsedJ)

	s.powered = false
	s.frames.reset(0xDE) // DRAM loses its contents, and the table with them
	clear(s.table)
	return rep, err
}

// dumpImage programs the image of the mapping table as it stands at the
// cut: every page the table maps, then the metadata page, at each dump
// block's program cursor. One firmware worker per dump block programs
// its slice sequentially; blocks sit on distinct dies, so the dump runs
// die-parallel — that is what makes it fast enough for capacitors.
// The device's procs run on during the dump (a BA_FLUSH that completes
// now removes its entry), so the pages programmed and the metadata page
// that names them come from one snapshot, never from the live table.
// A non-nil error means the image on NAND is torn: the dump was cut,
// or a program in the reserved area failed.
func (r *recovery) dumpImage(p *sim.Proc, end sim.Time) error {
	snap := r.s.Entries()
	pages := mappedPages(snap, r.s.PageSize())
	// Block 0 takes the metadata page even when no data page is mapped.
	return r.dumps.Run(p, max(1, r.spanned(len(pages))),
		dumpCmd{pages: pages, meta: r.encodeMeta(snap, r.cursorsAfter(len(pages))), end: end})
}

// dumpCmd is a dump as its block workers see it.
type dumpCmd struct {
	pages  []int    // the image's data pages
	meta   []byte   // the metadata page
	end    sim.Time // the instant the capacitors' energy runs out
	dumped int      // pages programmed by every worker, where a cut lands
	failed bool     // the image is torn: every worker stops at its next page
}

// dumpBlock is dump block b's worker: it programs the block's slice of
// the image sequentially at its program cursor, and block 0 the
// metadata page after it, tagged as metadata. Before each page it
// checks the dump's one stop rule: an injected cut after an exact
// global page count, or the reserve's end (a data page in flight then
// finishes). The metadata page, the image's commit record, is issued
// only if its program, uncontended, completes inside the reserve. A
// worker that fails marks the image torn.
func (r *recovery) dumpBlock(w *sim.Proc, c *dumpCmd, b int) (err error) {
	defer func() { c.failed = c.failed || err != nil }()
	s := r.s
	fl := s.dev.Flash()
	fc := fl.Config()
	blk := r.dumpBlocks[b]
	lo, hi := r.span(len(c.pages), b)
	last := hi
	if b == 0 {
		last++ // the metadata page
	}
	at := r.blockBase(blk) + nand.PPA(fl.NextPage(blk))
	for k := lo; k < last; k++ {
		switch {
		case c.failed:
			return nil
		case s.inj.DumpCut(c.dumped):
			return fmt.Errorf("%w: capacitors cut mid-dump", ErrDumpTorn)
		case s.env.Now() >= c.end, k == hi && s.env.Now()+sim.Time(fc.TransferTime(fc.PageSize)+fc.ProgramLatency) > c.end:
			return fmt.Errorf("%w: reserve spent after %d pages", ErrInsufficient, c.dumped)
		}
		page := c.meta
		if k < hi {
			page = s.frames.page(c.pages[k])
		}
		tag := integrity.PageCRC(page)
		if k == hi {
			tag ^= dumpMagic
		}
		s.frames.busy++
		err := fl.ProgramPageTagged(w, at, page, tag)
		s.frames.busy--
		if err != nil {
			return fmt.Errorf("%w: dump program: %v", ErrDumpTorn, err)
		}
		c.dumped++
		at++
	}
	return nil
}

// PowerOn restores the device after a power failure from the dump area
// alone (restoreImage); without an image that proves itself there the
// BA-buffer comes up empty. The dump area is erased only if it could
// not take another full-buffer dump, so the next PowerLoss finds room.
func (s *TwoBSSD) PowerOn(p *sim.Proc) error {
	if s.powered {
		return errors.New("2bssd: already powered on")
	}
	s.powered = true
	if err := s.rec.restoreImage(p); err != nil {
		return err
	}
	if !s.rec.room() {
		s.rec.erases.Run(p, len(s.rec.dumpBlocks), struct{}{})
	}
	return nil
}

// restoreImage resets the buffer and the table to the image on NAND:
// exactly the BA-buffer pages its entries map, every other page zeroed.
func (r *recovery) restoreImage(p *sim.Proc) error {
	s := r.s
	entries, cursors, err := r.image(p)
	if err != nil {
		return err
	}
	s.frames.reset(0)
	clear(s.table)
	c := restoreCmd{cursors: cursors, pages: mappedPages(entries, s.PageSize())}
	n := r.spanned(len(c.pages))
	if len(c.pages) > 0 {
		n++ // the worker that retires the image
	}
	if err := r.restores.Run(p, n, c); err != nil {
		return err
	}
	for _, e := range entries {
		s.table[e.ID] = e
	}
	return nil
}

// image is the table and cursors of the image on NAND, nil without
// one. The candidate is block 0's last programmed page; without a lead
// it is not even read. Tagged with its plain CRC it is BA-buffer data a
// torn dump or a spent reserve left there: no image. Tagged as
// metadata it must decode, and every dump block's cursor must be the
// one it records, or a later torn dump or the retirement page has
// passed it: no image. A candidate whose tag is neither is a damaged
// image, and restoring fails as it does on a damaged slice page.
func (r *recovery) image(p *sim.Proc) ([]Entry, []int, error) {
	fl := r.s.dev.Flash()
	blk0 := r.dumpBlocks[0]
	if r.lead() <= 0 {
		return nil, nil, nil
	}
	meta := make([]byte, r.s.PageSize())
	tag, err := fl.ReadPageInto(p, r.blockBase(blk0)+nand.PPA(fl.NextPage(blk0)-1), meta)
	if err != nil {
		return nil, nil, fmt.Errorf("2bssd: restore meta: %w", err)
	}
	switch crc := integrity.PageCRC(meta); tag {
	case crc:
		return nil, nil, nil
	case crc ^ dumpMagic:
	default:
		return nil, nil, fmt.Errorf("2bssd: restore meta: %w", integrity.ErrPageCorrupt)
	}
	entries, cursors, err := r.decodeMeta(meta)
	if err != nil {
		return nil, nil, err
	}
	for b, blk := range r.dumpBlocks {
		if fl.NextPage(blk) != cursors[b] {
			return nil, nil, nil
		}
	}
	return entries, cursors, nil
}

// restoreCmd is a restore as its block workers see it.
type restoreCmd struct {
	cursors []int // the cursors the image's metadata page records
	pages   []int // its data pages
}

// restoreBlock is dump block b's worker: it reads the block's slice of
// the image, which sits right before its recorded cursor (and before
// the metadata page in block 0), into the BA-buffer. The worker past
// the last slice retires the image: a zero page at the last dump
// block's cursor breaks the cursor match for good, so no later boot
// restores it again; the room a dump needs includes that page.
func (r *recovery) restoreBlock(w *sim.Proc, c *restoreCmd, b int) error {
	s := r.s
	fl := s.dev.Flash()
	if b == r.spanned(len(c.pages)) {
		last := len(r.dumpBlocks) - 1
		at := r.blockBase(r.dumpBlocks[last]) + nand.PPA(c.cursors[last])
		if err := fl.ProgramPageTagged(w, at, nil, integrity.PaddedCRC(nil, s.PageSize())); err != nil {
			return fmt.Errorf("2bssd: retire image: %w", err)
		}
		return nil
	}
	lo, hi := r.span(len(c.pages), b)
	at := r.blockBase(r.dumpBlocks[b]) + nand.PPA(c.cursors[b]-(hi-lo))
	if b == 0 {
		at-- // the metadata page follows block 0's slice
	}
	for _, i := range c.pages[lo:hi] {
		dst := s.frames.page(i)
		s.frames.busy++
		tag, err := fl.ReadPageInto(w, at, dst)
		s.frames.busy--
		if err != nil {
			return err
		}
		if err := integrity.Check(dst, tag); err != nil {
			return fmt.Errorf("2bssd: restore page %d: %w", i, err)
		}
		at++
	}
	return nil
}

// eraseBlock is dump block b's erase worker. Erasing every block wipes
// the dump area so it can take a full-buffer dump again (pre-erased, as
// real PLP firmware keeps it).
func (r *recovery) eraseBlock(w *sim.Proc, _ *struct{}, b int) error {
	fl := r.s.dev.Flash()
	blk := r.dumpBlocks[b]
	if fl.NextPage(blk) == 0 {
		return nil // already erased
	}
	if err := fl.EraseBlock(w, blk); err != nil {
		panic(fmt.Sprintf("2bssd: dump area erase failed: %v", err))
	}
	return nil
}
