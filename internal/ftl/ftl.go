// Package ftl implements a page-mapped flash translation layer over a
// nand.Flash: logical-to-physical mapping, out-of-place updates, greedy
// garbage collection, over-provisioning and write-amplification
// accounting.
//
// Every page the FTL maps carries the integrity CRC of its bytes out of
// band (package integrity): WritePage computes it, WritePageTagged takes
// the one computed where the page crossed the host boundary, relocation
// moves it with the page, and ReadPageInto checks it. Layers above read
// flash pages through the FTL and do not check them again.
//
// The FTL is the substrate behind every block device in this
// repository; its WAF counters are what make the paper's
// "BA-WAL reduces write amplification" claim (Section IV-A) measurable
// rather than asserted.
package ftl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// LBA is a logical page address (page-granular, typically 4 KB units).
type LBA uint64

// Within reports whether the n pages from lba lie inside the first
// pages logical pages. It is the one range check of every layer, and
// it cannot wrap: a range that runs past the top of uint64 is outside.
func Within(lba LBA, n int, pages uint64) bool {
	return n >= 0 && uint64(n) <= pages && uint64(lba) <= pages-uint64(n)
}

// Config tunes the translation layer.
type Config struct {
	// OverProvision is the fraction of usable blocks hidden from the
	// host to give GC room (e.g. 0.07 for 7 %).
	OverProvision float64
	// ReservedPerDie blocks at the end of every die are removed from
	// FTL accounting; the 2B-SSD recovery manager owns them (a
	// die-parallel dump area for power-loss protection).
	ReservedPerDie int
}

// Errors reported by the FTL.
var (
	ErrLBAOutOfRange = errors.New("ftl: LBA out of exported range")
	ErrNoSpace       = errors.New("ftl: no free blocks (device full)")
)

type openBlock struct {
	blk      nand.BlockID
	nextPage int
}

// room reports whether the slot has an open block with a page left.
func (ob openBlock) room(pagesPerBlock int) bool {
	return ob.nextPage >= 0 && ob.nextPage < pagesPerBlock
}

// FTL is a page-mapping translation layer bound to one flash array.
type FTL struct {
	env   *sim.Env
	flash *nand.Flash
	cfg   Config

	exportedPages uint64
	usableBlocks  int
	gcFreeTarget  int // GC runs when the free-block count drops to this
	relocSlots    int // the relocation frontier's slots, and its reserve of free blocks

	// The page map, as a controller keeps it: tables indexed by LBA and
	// by PPA, in pieces of one block's worth of entries, each made at the
	// first bind that lands in it (as the flash makes a block's page
	// table at its first program), so a drive pays only for the LBA
	// ranges and blocks it uses. An entry holds the other address plus
	// one, so 0 means unmapped; New checks the geometry fits.
	l2p        [][]uint32 // by LBA/piece: PPA+1
	p2l        [][]uint32 // by block: LBA+1
	piece      uint64     // entries per piece: PagesPerBlock
	pieceMem   []uint32   // pieces not handed out yet, carved mapPieces at a time
	validCount []int      // valid pages per usable block
	free       []nand.BlockID
	open       []openBlock // the host frontier: one open block per die, nextPage -1 until opened
	nextDie    int

	// The relocation frontier: open blocks that only relocation programs,
	// min(relocWorkers, dies) of them, each behind its own lock. As many
	// free blocks as it has slots are its reserve (see hostPage). Made at
	// the first collection, with erasers and erased.
	relocOpen  []openBlock
	relocLocks []sim.Resource // one backing array; elements never copied

	// Victims wait for their die's eraser and join free once erased;
	// erasing counts them, erased fires per erase.
	erasers []eraser // by die
	erasing int
	erased  *sim.Signal

	// The collector: a daemon started at the first trigger, woken by
	// gcWork (see maybeGC), that takes no new victim while stopped.
	// handed is the victim maybeGC decided for it at the wake-up, until
	// the collector takes it under gcLock or parks without it.
	gcWork    *sim.Signal
	gcStopped bool
	handed    nand.BlockID
	handedOK  bool

	// dieLocks serialize allocate+program per host slot, and relocLocks
	// per relocation slot, so concurrent processes cannot reorder page
	// programs within a block (the NAND sequential-program rule). gcLock
	// serializes collections.
	// Lock order: gcLock, then one relocLock, then NAND channel/die; a
	// host write takes one dieLock, then NAND channel/die.
	dieLocks []sim.Resource // one backing array; elements never copied
	gcLock   *sim.Resource

	// Block evacuation (see evacuate); gcLock's holder owns all of it.
	skip      []bool       // pickVictim marks: open and free blocks, and blocks awaiting erase
	evacSrc   []nand.PPA   // the victim's valid pages, cut into the runs
	relocSlot int          // round-robin cursor over relocation slots
	relocQ    [][]nand.PPA // runs handed to the workers, relocQ[:relocHead] taken
	relocHead int
	relocErr  error              // first error of the batch
	reloc     *sim.Fan[struct{}] // the batch's workers

	o                              *obs.Set
	inj                            *fault.Injector
	cHostWrites, cHostReads        *obs.Counter
	cNandWrites, cGCReloc, cGCRuns *obs.Counter
	hWrite, hGCPause               *histo.H
}

// eraser is one die's victims waiting for their erase, the head
// erasing, and the signal its daemon waits on for more.
type eraser struct {
	queue []nand.BlockID
	work  *sim.Signal
}

// dieNameTab memoizes "ftl.die%d" strings process-wide: the names are
// identical in every environment, and short-lived benchmark envs
// otherwise pay the formatting on every construction.
var dieNameTab struct {
	sync.Mutex
	names []string
}

func dieNames(n int) []string {
	dieNameTab.Lock()
	defer dieNameTab.Unlock()
	for i := len(dieNameTab.names); i < n; i++ {
		dieNameTab.names = append(dieNameTab.names, fmt.Sprintf("ftl.die%d", i))
	}
	return dieNameTab.names[:n]
}

// New builds an FTL over flash. Panics on impossible configurations
// (construction-time misuse).
func New(env *sim.Env, flash *nand.Flash, cfg Config) *FTL {
	fc := flash.Config()
	if cfg.ReservedPerDie < 0 || cfg.ReservedPerDie >= fc.BlocksPerDie {
		panic("ftl: ReservedPerDie out of range")
	}
	usable := fc.Blocks() - cfg.ReservedPerDie*fc.Dies()
	if usable <= fc.Dies()+2 {
		panic(fmt.Sprintf("ftl: only %d usable blocks; need > dies+2", usable))
	}
	if cfg.OverProvision < 0 || cfg.OverProvision >= 0.9 {
		panic("ftl: OverProvision must be in [0, 0.9)")
	}
	if fc.Pages() > math.MaxUint32 {
		panic(fmt.Sprintf("ftl: %d pages do not fit the 32-bit map tables", fc.Pages()))
	}
	// Garbage collection triggers when the free-block count drops to
	// one open block per die plus two spares.
	gcFreeTarget := fc.Dies() + 2
	opBlocks := int(float64(usable) * cfg.OverProvision)
	if opBlocks < gcFreeTarget+1 {
		opBlocks = gcFreeTarget + 1
	}
	exported := uint64(usable-opBlocks) * uint64(fc.PagesPerBlock)
	f := &FTL{
		env:           env,
		flash:         flash,
		cfg:           cfg,
		gcFreeTarget:  gcFreeTarget,
		relocSlots:    min(relocWorkers, fc.Dies()),
		exportedPages: exported,
		usableBlocks:  usable,
		l2p:           make([][]uint32, (exported+uint64(fc.PagesPerBlock)-1)/uint64(fc.PagesPerBlock)),
		p2l:           make([][]uint32, fc.Blocks()),
		piece:         uint64(fc.PagesPerBlock),
		validCount:    make([]int, fc.Blocks()),
		open:          make([]openBlock, fc.Dies()),
	}
	for i := range f.open {
		f.open[i] = openBlock{blk: nand.BlockID(0), nextPage: -1}
	}
	f.dieLocks = env.NewResources(dieNames(fc.Dies()), 1)
	f.gcLock = env.NewResource("ftl.gc", 1)
	f.reloc = sim.NewFan(env, "ftl.reloc", f.relocWorker)
	// All non-reserved blocks start free (the last ReservedPerDie
	// blocks of each die belong to the recovery manager).
	for b := 0; b < fc.Blocks(); b++ {
		if !f.reserved(nand.BlockID(b)) {
			f.free = append(f.free, nand.BlockID(b))
		}
	}
	f.o = obs.Of(env)
	f.inj = fault.Of(env)
	reg := f.o.Registry()
	f.cHostWrites = reg.Counter("ftl.host_page_writes")
	f.cHostReads = reg.Counter("ftl.host_page_reads")
	f.cNandWrites = reg.Counter("ftl.nand_page_writes")
	f.cGCReloc = reg.Counter("ftl.gc_relocations")
	f.cGCRuns = reg.Counter("ftl.gc_runs")
	f.hWrite = reg.Histo("ftl.write_ns")
	f.hGCPause = reg.Histo("ftl.gc_pause_ns")
	reg.GaugeFunc("ftl.free_blocks", func() float64 { return float64(len(f.free)) })
	return f
}

// reserved reports whether a block belongs to the recovery dump area.
func (f *FTL) reserved(blk nand.BlockID) bool {
	if f.cfg.ReservedPerDie == 0 {
		return false
	}
	bpd := f.flash.Config().BlocksPerDie
	return int(uint64(blk)%uint64(bpd)) >= bpd-f.cfg.ReservedPerDie
}

// Config returns the FTL configuration in effect (with defaults filled).
func (f *FTL) Config() Config { return f.cfg }

// ExportedPages reports the number of host-visible logical pages.
func (f *FTL) ExportedPages() uint64 { return f.exportedPages }

// PageSize reports the logical/physical page size in bytes.
func (f *FTL) PageSize() int { return f.flash.Config().PageSize }

// PPAOf reports the physical page currently backing an LBA. Intended
// for fault-injection and integrity tests that need to corrupt or
// inspect a specific page image on flash.
func (f *FTL) PPAOf(lba LBA) (nand.PPA, bool) {
	if uint64(lba) >= f.exportedPages {
		return 0, false
	}
	return f.lookup(lba)
}

// get reads entry i of a map table; a piece not made yet reads 0.
func (f *FTL) get(table [][]uint32, i uint64) uint32 {
	if piece := table[i/f.piece]; piece != nil {
		return piece[i%f.piece]
	}
	return 0
}

// mapPieces is how many map-table pieces one allocation makes: a
// drive built for a short run touches hundreds of blocks, and a piece
// per heap object would cost as many allocations.
const mapPieces = 64

// set writes entry i of a map table, making its piece if need be.
func (f *FTL) set(table [][]uint32, i uint64, v uint32) {
	piece := &table[i/f.piece]
	if *piece == nil {
		if len(f.pieceMem) == 0 {
			f.pieceMem = make([]uint32, mapPieces*f.piece)
		}
		*piece, f.pieceMem = f.pieceMem[:f.piece:f.piece], f.pieceMem[f.piece:]
	}
	(*piece)[i%f.piece] = v
}

// lookup returns the page backing an exported LBA.
func (f *FTL) lookup(lba LBA) (nand.PPA, bool) {
	v := f.get(f.l2p, uint64(lba))
	return nand.PPA(v - 1), v != 0
}

// owner returns the LBA a physical page backs.
func (f *FTL) owner(ppa nand.PPA) (LBA, bool) {
	v := f.get(f.p2l, uint64(ppa))
	return LBA(v - 1), v != 0
}

// bind maps lba to ppa, a page nothing maps.
func (f *FTL) bind(lba LBA, ppa nand.PPA) {
	f.set(f.l2p, uint64(lba), uint32(ppa)+1)
	f.set(f.p2l, uint64(ppa), uint32(lba)+1)
	f.validCount[f.flash.Config().BlockOf(ppa)]++
}

// unbind takes ppa's owner away, if it has one, and reports whether it
// had; the LBA's own entry is the caller's to replace or clear.
func (f *FTL) unbind(ppa nand.PPA) bool {
	if _, ok := f.owner(ppa); !ok {
		return false
	}
	f.set(f.p2l, uint64(ppa), 0)
	f.validCount[f.flash.Config().BlockOf(ppa)]--
	return true
}

// Audit checks the invariants of the page map: l2p and p2l are each
// other's inverse, so no physical page backs two LBAs and none is owned
// by an LBA that maps elsewhere, and each block's valid count is what a
// recount of its p2l gives; every free block is erased and free once,
// no block is open in two slots, host or relocation, or both open and
// free, and a block waiting for its erase holds no valid page and is
// neither free nor open on either frontier. A write, trim, relocation
// or erase updates the map and the pool without yielding, so the
// invariants hold whenever a proc can run. Audit does not yield, and
// allocates only the error it returns.
func (f *FTL) Audit() error {
	pages := f.flash.Config().Pages()
	mapped, owned := 0, 0
	for i, piece := range f.l2p {
		for j, v := range piece {
			if v == 0 {
				continue
			}
			lba, ppa := LBA(uint64(i)*f.piece+uint64(j)), nand.PPA(v-1)
			if uint64(ppa) >= uint64(pages) {
				return fmt.Errorf("ftl: l2p[%d] = %d, past the array's %d pages", lba, ppa, pages)
			}
			if back, ok := f.owner(ppa); !ok || back != lba {
				return fmt.Errorf("ftl: l2p[%d] = %d but p2l[%d] = %d (%v)", lba, ppa, ppa, back, ok)
			}
			mapped++
		}
	}
	for b, piece := range f.p2l {
		n := 0
		for _, v := range piece {
			if v != 0 {
				n++
			}
		}
		if f.validCount[b] != n {
			return fmt.Errorf("ftl: block %d: validCount %d, recount %d", b, f.validCount[b], n)
		}
		owned += n
	}
	if mapped != owned {
		return fmt.Errorf("ftl: l2p maps %d LBAs, p2l %d pages: a page is orphaned", mapped, owned)
	}
	for i, b := range f.free {
		if f.flash.NextPage(b) != 0 {
			return fmt.Errorf("ftl: free block %d is not erased", b)
		}
		if slices.Contains(f.free[i+1:], b) {
			return fmt.Errorf("ftl: block %d is free twice", b)
		}
	}
	for fi, slots := range [2][]openBlock{f.open, f.relocOpen} {
		for i, ob := range slots {
			if ob.nextPage < 0 {
				continue
			}
			if slices.Contains(f.free, ob.blk) {
				return fmt.Errorf("ftl: block %d is open and free", ob.blk)
			}
			isOpen := func(o openBlock) bool { return o.nextPage >= 0 && o.blk == ob.blk }
			if slices.ContainsFunc(slots[i+1:], isOpen) || (fi == 0 && slices.ContainsFunc(f.relocOpen, isOpen)) {
				return fmt.Errorf("ftl: block %d is open in two slots", ob.blk)
			}
		}
	}
	for _, q := range f.erasers {
		for _, b := range q.queue {
			isOpen := func(ob openBlock) bool { return ob.nextPage >= 0 && ob.blk == b }
			open := slices.ContainsFunc(f.open, isOpen) || slices.ContainsFunc(f.relocOpen, isOpen)
			free := slices.Contains(f.free, b)
			if f.validCount[b] != 0 || open || free {
				return fmt.Errorf("ftl: block %d waits for its erase holding %d valid pages, open %v, free %v", b, f.validCount[b], open, free)
			}
		}
	}
	return nil
}

func (f *FTL) checkLBA(lba LBA) error {
	if uint64(lba) >= f.exportedPages {
		return fmt.Errorf("%w: %d >= %d", ErrLBAOutOfRange, lba, f.exportedPages)
	}
	return nil
}

// hostBlock is the index in free of the block host slot die opens
// next: the first on that die, to keep program parallelism, else the
// first.
func (f *FTL) hostBlock(die int) int {
	for i, b := range f.free {
		if f.dieOf(b) == die {
			return i
		}
	}
	return 0
}

// take removes free[i] and returns it; free keeps its capacity.
func (f *FTL) take(i int) nand.BlockID {
	b := f.free[i]
	f.free = append(f.free[:i], f.free[i+1:]...)
	return b
}

// dieOf is the die a block lives on.
func (f *FTL) dieOf(blk nand.BlockID) int {
	return int(uint64(blk) / uint64(f.flash.Config().BlocksPerDie))
}

// erasingOn reports whether a victim waits on die's eraser, the head of
// its queue erasing.
func (f *FTL) erasingOn(die int) bool {
	return f.erasers != nil && len(f.erasers[die].queue) > 0
}

// claim takes up to want consecutive pages of ob, an open block with a
// page left.
func (f *FTL) claim(ob *openBlock, want int) (base nand.PPA, n int) {
	ppb := f.flash.Config().PagesPerBlock
	base = nand.PPA(uint64(ob.blk)*uint64(ppb) + uint64(ob.nextPage))
	n = min(want, ppb-ob.nextPage)
	ob.nextPage += n
	return base, n
}

// hostPage takes the next page of host slot die's open block, opening a
// fresh block (preferably on that die) if it is full. It never takes
// the pool down into the relocation frontier's reserve while a victim
// exists: it wakes the collector, releases the slot's lock and waits
// for an erase, holding no lock, then tries again. ErrNoSpace means the
// pool is empty, nothing is erasing and there is no victim. Called with
// dieLocks[die] held, and returns with it held.
func (f *FTL) hostPage(p *sim.Proc, die int) (nand.PPA, error) {
	ob := &f.open[die]
	for !ob.room(f.flash.Config().PagesPerBlock) {
		open := len(f.free) > f.relocSlots
		if !open {
			// Down to the reserve: it is the host's only when there is
			// nothing to relocate and no erase to wait for.
			_, victim := f.pickVictim()
			if !victim && f.erasing == 0 {
				if len(f.free) == 0 {
					return 0, ErrNoSpace
				}
				open = true
			}
		}
		if open {
			*ob = openBlock{blk: f.take(f.hostBlock(die)), nextPage: 0}
			break
		}
		f.maybeGC()
		f.dieLocks[die].Release()
		f.erased.Wait(p)
		f.dieLocks[die].Acquire(p)
	}
	ppa, _ := f.claim(ob, 1)
	return ppa, nil
}

// invalidate is where a physical page loses its owner to an overwrite
// or a trim (a rebind hands its bytes on instead). Nothing reads the
// page after this (reads in flight took their bytes when they were
// issued), so the flash drops its bytes now rather than at the block's
// erase: host memory holds what the map holds.
func (f *FTL) invalidate(ppa nand.PPA) {
	if f.unbind(ppa) {
		f.flash.Discard(ppa)
	}
}

// WritePage writes one logical page out of place. Its integrity tag is
// the CRC of the page as the flash stores it: the data may be shorter
// than a page, zero padded by the flash layer and so for the CRC.
func (f *FTL) WritePage(p *sim.Proc, lba LBA, data []byte) error {
	return f.WritePageTagged(p, lba, data, integrity.PaddedCRC(data, f.PageSize()))
}

// WritePageTagged is WritePage with the integrity tag computed by the
// caller where the page crossed the host boundary: the CRC of the page
// as stored. The tag rides out of band with the page through NAND and
// garbage collection, and ReadPageInto checks it.
// The write never collects: it wakes the collector (maybeGC) and waits
// only for its slot, its program and, with the pool down to the
// relocation reserve, an erase.
func (f *FTL) WritePageTagged(p *sim.Proc, lba LBA, data []byte, tag uint32) error {
	if err := f.checkLBA(lba); err != nil {
		return err
	}
	start := f.env.Now()
	f.maybeGC()
	die := f.hostSlot(lba)
	f.dieLocks[die].Acquire(p)
	ppa, err := f.hostPage(p, die)
	if err == nil {
		if err = f.flash.ProgramPageTagged(p, ppa, data, tag); err != nil {
			err = fmt.Errorf("ftl: program failed: %w", err)
		}
	}
	f.dieLocks[die].Release()
	if err != nil {
		return err
	}
	if old, ok := f.lookup(lba); ok {
		f.invalidate(old)
	}
	f.bind(lba, ppa)
	f.cHostWrites.Inc()
	f.cNandWrites.Inc()
	f.hWrite.Observe(sim.Duration(f.env.Now() - start))
	return nil
}

// hostSlot picks the slot for a host write of lba: the slot whose open
// block's last page is lba's copy, so a sequential stream rewritten
// back to back lands one die apart, else the first from the round-robin
// cursor. Either way it passes over a slot whose die housekeeping holds
// (see held): the first slot from the cursor whose die is held least
// wins, the cursor's when every die erases.
func (f *FTL) hostSlot(lba LBA) int {
	if ppa, ok := f.lookup(lba); ok {
		last := openBlock{f.flash.Config().BlockOf(ppa), int(uint64(ppa)%f.piece) + 1}
		if d := slices.Index(f.open, last); d >= 0 && f.held(f.slotDie(d)) == 0 {
			return d
		}
	}
	n := len(f.open)
	d, least := f.nextDie, heldErase+1
	for i := 0; i < n && least > 0; i++ {
		c := (f.nextDie + i) % n
		if h := f.held(f.slotDie(c)); h < least {
			d, least = c, h
		}
	}
	f.nextDie = (d + 1) % n
	return d
}

// slotDie is the die host slot d programs next: its open block's, or,
// with the block full, the die hostBlock prefers.
func (f *FTL) slotDie(d int) int {
	if ob := f.open[d]; ob.room(f.flash.Config().PagesPerBlock) {
		return f.dieOf(ob.blk)
	}
	return d
}

// How long housekeeping holds a die for a host program, in the order
// hostSlot avoids them: a relocation run holds it for up to
// relocRunPages programs, an erase for milliseconds.
const (
	heldRun = 1 + iota
	heldErase
)

// held reports what holds die for a host program: heldErase while a
// victim waits on its eraser or is the one handed to the collector,
// heldRun while a relocation run programs on it — a relocation slot's
// lock is taken, its open block is on die, and the die is busy — else 0.
func (f *FTL) held(die int) int {
	if f.erasingOn(die) || f.handedOK && f.dieOf(f.handed) == die {
		return heldErase
	}
	if !f.flash.DieIdle(die) {
		for s, ob := range f.relocOpen {
			if ob.nextPage >= 0 && f.dieOf(ob.blk) == die && f.relocLocks[s].InUse() > 0 {
				return heldRun
			}
		}
	}
	return 0
}

// ReadPage reads one logical page into a fresh buffer (see
// ReadPageInto). Only benchmark/adapter.go calls it; revision A deletes it.
func (f *FTL) ReadPage(p *sim.Proc, lba LBA) ([]byte, error) {
	out := make([]byte, f.PageSize())
	if err := f.ReadPageInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPageInto reads one logical page into a caller-provided buffer of
// at least PageSize bytes, so device-level read fan-out lands pages
// directly in the host buffer with zero copies or allocations on the
// fault-free path. Unmapped pages return zeroes without touching flash
// (the controller answers from the map). Every mapped page is checked
// against the integrity tag it was written with; a mismatch is an error
// wrapping integrity.ErrPageCorrupt.
func (f *FTL) ReadPageInto(p *sim.Proc, lba LBA, dst []byte) error {
	if err := f.checkLBA(lba); err != nil {
		return err
	}
	f.cHostReads.Inc()
	dst = dst[:f.PageSize()]
	ppa, ok := f.lookup(lba)
	if !ok {
		clear(dst)
		return nil
	}
	tag, err := f.flash.ReadPageInto(p, ppa, dst)
	if err != nil {
		return err
	}
	if err := integrity.Check(dst, tag); err != nil {
		return fmt.Errorf("ftl: lba %d: %w", lba, err)
	}
	return nil
}

// Trim invalidates a logical page without writing.
func (f *FTL) Trim(lba LBA) error {
	if err := f.checkLBA(lba); err != nil {
		return err
	}
	if ppa, ok := f.lookup(lba); ok {
		f.invalidate(ppa)
		f.set(f.l2p, uint64(lba), 0)
	}
	return nil
}

// maybeGC wakes the collector when collection is due, starting it at
// the first trigger, and hands it the victim it takes first, so the
// victim's die is decided before the write that woke it picks one (see
// held), whichever proc runs first at the instant. It never yields:
// collection is the collector's, and no host path runs it. The erased
// signal exists once the trigger has held, stopped collector or not, so
// a write can wait on it.
func (f *FTL) maybeGC() {
	if len(f.free)+f.erasing > f.gcFreeTarget {
		return
	}
	f.housekeeping()
	if f.gcStopped {
		return
	}
	switch {
	case f.gcWork == nil:
		f.gcWork = f.env.NewSignal("ftl.gc")
		f.env.GoDaemon("ftl.gc", f.collector)
	case f.gcWork.Waiters() == 0:
		return // collecting: it checks the trigger again before it parks
	default:
		f.gcWork.Fire()
	}
	f.handed, f.handedOK = f.pickVictim()
}

// due reports whether collection is due: the pool, counting the blocks
// being erased, is down to the target, and the collector is not stopped.
func (f *FTL) due() bool {
	return !f.gcStopped && len(f.free)+f.erasing <= f.gcFreeTarget
}

// StopGC keeps the collector from taking another victim until StartGC.
// The recovery manager stops it for the power-loss dump, which the
// capacitor reserve must cover: a victim being evacuated then is
// finished, as an erase in flight is, and no other is started. A write
// that needs a block at the relocation reserve meanwhile waits for an
// erase, as it always does.
func (f *FTL) StopGC() { f.gcStopped = true }

// StartGC lets the collector take victims again and wakes it if the
// trigger holds.
func (f *FTL) StartGC() {
	f.gcStopped = false
	f.maybeGC()
}

// relocNames names the relocation slots' locks.
var relocNames = func() (names [relocWorkers]string) {
	for i := range names {
		names[i] = fmt.Sprintf("ftl.reloc%d", i)
	}
	return names
}()

// housekeeping makes what relocation and erasing need, at the first
// collection: the relocation frontier and its locks,
// the erasers and the erased signal. A drive that never collects makes
// none of it.
func (f *FTL) housekeeping() {
	if f.relocLocks != nil {
		return
	}
	f.relocOpen = make([]openBlock, f.relocSlots)
	for i := range f.relocOpen {
		f.relocOpen[i].nextPage = -1
	}
	f.relocLocks = f.env.NewResources(relocNames[:f.relocSlots], 1)
	f.erasers = make([]eraser, len(f.open))
	f.erased = f.env.NewSignal("ftl.erased")
}

// collector is the garbage-collection daemon. Woken by maybeGC, it
// collects while collection is due and a victim exists, and waits for
// the next wake-up otherwise — never spinning at one instant on a
// trigger it cannot act on.
func (f *FTL) collector(p *sim.Proc) {
	for {
		if !f.due() || !f.collect(p) {
			f.handedOK = false
			f.gcWork.Wait(p)
		}
	}
}

// collect takes gcLock and runs greedy reclamation, the handed victim
// first, while collection is due and a victim is left, and reports
// whether it reclaimed one. A relocation that fails is a modelling
// error, as a failed drain write is: the reserve keeps relocation in
// free blocks.
func (f *FTL) collect(p *sim.Proc) bool {
	f.gcLock.Acquire(p)
	defer f.gcLock.Release()
	victim, ok := f.handed, f.handedOK
	f.handedOK = false
	if !ok {
		victim, ok = f.pickVictim()
	}
	if !ok || !f.due() {
		return false
	}
	start := f.env.Now()
	sp := f.o.Tracer().Begin("ftl.gc", "ftl", "gc")
	for ok {
		f.cGCRuns.Inc()
		if err := f.evacuate(p, victim); err != nil {
			panic(fmt.Sprintf("ftl: gc relocation: %v", err))
		}
		f.eraseLater(victim)
		if !f.due() {
			break
		}
		victim, ok = f.pickVictim()
	}
	sp.End()
	f.hGCPause.Observe(sim.Duration(f.env.Now() - start))
	return true
}

// eraseLater queues an evacuated victim on its die's eraser, a daemon
// started at the die's first victim: the erase leaves the collector.
func (f *FTL) eraseLater(blk nand.BlockID) {
	q := &f.erasers[f.dieOf(blk)]
	if q.work == nil {
		q.work = f.env.NewSignal("ftl.erase")
		f.env.GoDaemon("ftl.erase", func(p *sim.Proc) { f.eraseLoop(p, q) })
	}
	q.queue = append(q.queue, blk)
	f.skip[blk] = true
	f.erasing++
	q.work.Fire()
}

// eraseLoop is one die's eraser: it erases the queued victims in order
// and returns each to free.
func (f *FTL) eraseLoop(p *sim.Proc, q *eraser) {
	for {
		for len(q.queue) == 0 {
			q.work.Wait(p)
		}
		blk := q.queue[0]
		if f.flash.EraseBlock(p, blk) == nil {
			f.free = append(f.free, blk)
		}
		f.skip[blk] = false
		q.queue = q.queue[:copy(q.queue, q.queue[1:])]
		f.erasing--
		f.erased.Fire()
	}
}

// Relocation moves a block's valid pages in runs: up to relocRunPages
// pages read in one die hold and one channel hold, then programmed into
// consecutive pages of one destination block in one channel hold and one
// die hold (nand.ReadRun, nand.ProgramRun). It is copy-back: no byte is
// copied, each page's buffer passes to its copy when the LBA is rebound
// (nand.Move). A block with more than one run is moved by up to
// relocWorkers worker procs, one fork-join (sim.Fan) per block, each run
// landing on a die that is idle at that instant — a victim's reads
// serialize on its own die, its programs spread over the array. Runs,
// not pages, are the unit because the simulator pays per process
// switch: resuming a different proc costs ~20x a lone sleeper's next
// event, and one proc per page costs more host time than the serial
// loop it replaces.
const (
	relocWorkers  = 8
	relocRunPages = 8
)

// evacuate empties a GC victim: every page still valid is moved
// elsewhere and rebound. Called with gcLock held.
func (f *FTL) evacuate(p *sim.Proc, blk nand.BlockID) error {
	f.evacSrc = f.validPages(blk, f.evacSrc[:0])
	src := f.evacSrc
	switch {
	case len(src) == 0:
		return nil // nothing to move: no proc woken, no time spent
	case len(src) <= relocRunPages:
		// One run: handing it over would buy two process switches.
		return f.moveRun(p, src)
	}
	f.relocQ, f.relocHead, f.relocErr = f.relocQ[:0], 0, nil
	for per := runLen(len(src)); len(src) > 0; src = src[min(per, len(src)):] {
		f.relocQ = append(f.relocQ, src[:min(per, len(src))])
	}
	f.reloc.Run(p, min(len(f.relocQ), relocWorkers), struct{}{})
	return f.relocErr
}

// runLen is the run length that moves n pages in equal runs, as few as
// fit: the last run to land ends the move.
func runLen(n int) int {
	runs := (n + relocRunPages - 1) / relocRunPages
	return (n + runs - 1) / runs
}

// relocWorker is relocation worker i of a batch: it moves queued runs,
// one at a time, until none is left. A failed run does not stop it; the
// batch reports the first error in time, which is not always the first
// a worker returns.
func (f *FTL) relocWorker(w *sim.Proc, _ *struct{}, _ int) error {
	for f.relocHead < len(f.relocQ) {
		run := f.relocQ[f.relocHead]
		f.relocHead++
		if err := f.moveRun(w, run); err != nil && f.relocErr == nil {
			f.relocErr = err
		}
	}
	return nil
}

// moveRun moves one run, a slice of evacSrc that it filters in place: read
// the pages, drop those the host overwrote or trimmed while the read
// was in flight, land the rest.
func (f *FTL) moveRun(p *sim.Proc, run []nand.PPA) error {
	if err := f.flash.ReadRun(p, run); err != nil {
		return fmt.Errorf("ftl: relocation read: %w", err)
	}
	live := run[:0]
	for _, ppa := range run {
		if _, valid := f.owner(ppa); valid {
			live = append(live, ppa)
		}
	}
	return f.land(p, live)
}

// land programs copy-back targets for valid pages (pages[i] is where
// each lives now) on the relocation frontier and rebinds their mappings
// — the one place host and relocation map updates are arbitrated. It
// takes a relocation slot whose die is idle; a run that outgrows the
// slot's open block goes on in the slot's next block rather than on
// another die, so the free block a relocation uses up is taken while
// the collection that caused it is still counting. Bytes and integrity
// tags move with their pages at the rebind, after the whole run has
// programmed. Called under gcLock (see evacuate), by the collector,
// which maybeGC starts only once housekeeping has made the frontier.
func (f *FTL) land(p *sim.Proc, pages []nand.PPA) error {
	if len(pages) == 0 {
		return nil
	}
	s := f.lockIdleSlot(p)
	defer f.relocLocks[s].Release()
	for len(pages) > 0 {
		base, n, err := f.relocRun(p, s, len(pages))
		if err != nil {
			return err
		}
		if err := f.flash.ProgramRun(p, base, n); err != nil {
			return err
		}
		for i, src := range pages[:n] {
			f.cNandWrites.Inc()
			f.cGCReloc.Inc()
			// The run yielded since the page was read: rebind only if
			// the mapping is still the page that was read. A host
			// write (or trim) that landed meanwhile wins, and the
			// copy stays unmapped, without bytes.
			f.rebind(src, base+nand.PPA(i))
		}
		pages = pages[n:]
	}
	return nil
}

// relocRun takes up to want consecutive pages of relocation slot s's
// open block, opening a fresh block if it is full: one on a die that is
// idle and has no victim waiting for its erase, and, among those, not
// one another slot's block is on. With the pool empty it waits for a
// pending erase, holding the slot's lock, which only relocation takes.
// Called with relocLocks[s] held.
func (f *FTL) relocRun(p *sim.Proc, s, want int) (nand.PPA, int, error) {
	ob := &f.relocOpen[s]
	for !ob.room(f.flash.Config().PagesPerBlock) {
		if len(f.free) > 0 {
			*ob = openBlock{blk: f.take(f.frontierBlock()), nextPage: 0}
			break
		}
		if f.erasing == 0 {
			return 0, 0, ErrNoSpace
		}
		f.erased.Wait(p)
	}
	base, n := f.claim(ob, want)
	return base, n, nil
}

// frontierBlock is the index in free of the block a relocation slot
// opens next: the first whose die is idle and erases nothing, better
// still one no relocation slot's open block is on, else the first.
func (f *FTL) frontierBlock() int {
	ppb := f.flash.Config().PagesPerBlock
	best, bestScore := 0, -1
	for i, b := range f.free {
		die := f.dieOf(b)
		score := 0
		if f.flash.DieIdle(die) && !f.erasingOn(die) {
			score = 2
		}
		if !slices.ContainsFunc(f.relocOpen, func(ob openBlock) bool { return ob.room(ppb) && f.dieOf(ob.blk) == die }) {
			score++
		}
		if score > bestScore {
			best, bestScore = i, score
			if score == 3 {
				break
			}
		}
	}
	return best
}

// rebind moves the mapping of the valid page at src to its copy at dst,
// and src's bytes and tag with it, in one step with no yield: a mapped
// page always holds its bytes. l2p and p2l are each other's inverse, so
// "src still has an owner" is the l2p[lba] == src rule: a host write or
// trim of the LBA since src was read cleared p2l[src], and the copy
// loses.
func (f *FTL) rebind(src, dst nand.PPA) {
	lba, ok := f.owner(src)
	if !ok {
		return
	}
	f.unbind(src)
	f.flash.Move(src, dst)
	f.bind(lba, dst)
}

// validPages appends the addresses of blk's valid pages to dst.
func (f *FTL) validPages(blk nand.BlockID, dst []nand.PPA) []nand.PPA {
	base := nand.PPA(uint64(blk) * f.piece)
	for pg, v := range f.p2l[blk] {
		if v != 0 {
			dst = append(dst, base+nand.PPA(pg))
		}
	}
	return dst
}

// lockIdleSlot locks a relocation slot for a run: the first from the
// round-robin cursor whose lock is free and whose die — its open
// block's; a slot without room opens a block on an idle die — is idle
// at this instant, so concurrent runs fan out over the array and stay
// off dies that host reads or other runs are using. With nothing idle
// it queues on the cursor's slot.
func (f *FTL) lockIdleSlot(p *sim.Proc) int {
	ppb := f.flash.Config().PagesPerBlock
	n := len(f.relocOpen)
	for i := 0; i < n; i++ {
		s := (f.relocSlot + i) % n
		ob := f.relocOpen[s]
		if (!ob.room(ppb) || f.flash.DieIdle(f.dieOf(ob.blk))) && f.relocLocks[s].TryAcquire() {
			f.relocSlot = (s + 1) % n
			return s
		}
	}
	s := f.relocSlot
	f.relocSlot = (s + 1) % n
	f.relocLocks[s].Acquire(p)
	return s
}

// pickVictim selects the closed block with the fewest valid pages
// (greedy; the lowest block wins a tie). Open blocks of both frontiers,
// free blocks and those waiting for their erase are excluded, and so is each die's reserved
// tail, which the scan never enters.
func (f *FTL) pickVictim() (nand.BlockID, bool) {
	fc := f.flash.Config()
	if f.skip == nil {
		f.skip = make([]bool, fc.Blocks())
	}
	mark := func(v bool) {
		for _, ob := range f.open {
			if ob.nextPage >= 0 {
				f.skip[ob.blk] = v
			}
		}
		for _, ob := range f.relocOpen {
			if ob.nextPage >= 0 {
				f.skip[ob.blk] = v
			}
		}
		for _, b := range f.free {
			f.skip[b] = v
		}
	}
	mark(true)
	best := nand.BlockID(0)
	bestValid := fc.PagesPerBlock + 1
	found := false
	usable := fc.BlocksPerDie - f.cfg.ReservedPerDie
	for first := 0; first < fc.Blocks(); first += fc.BlocksPerDie {
		for b := first; b < first+usable; b++ {
			blk := nand.BlockID(b)
			if f.skip[b] {
				continue
			}
			if f.flash.NextPage(blk) == 0 {
				continue // never programmed since erase; nothing to reclaim
			}
			if v := f.validCount[b]; v < bestValid {
				best, bestValid, found = blk, v, true
			}
		}
	}
	mark(false)
	if !found || bestValid >= fc.PagesPerBlock {
		// Only fully-valid blocks left: reclaiming one frees nothing
		// (it would rewrite a whole block to free a whole block).
		return 0, false
	}
	return best, true
}
