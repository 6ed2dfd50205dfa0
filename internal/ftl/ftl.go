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

// FTL is a page-mapping translation layer bound to one flash array.
type FTL struct {
	env   *sim.Env
	flash *nand.Flash
	cfg   Config

	exportedPages uint64
	usableBlocks  int
	gcFreeTarget  int // GC runs when the free-block count drops to this

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
	open       []openBlock // one open block per die, nil blk = -1
	nextDie    int

	// dieLocks serialize allocate+program per open-block slot so
	// concurrent writer processes cannot reorder page programs within a
	// block (the NAND sequential-program rule). gcLock serializes garbage
	// collection, retirement and scrub rewrites.
	// Lock order: gcLock, then one dieLock, then NAND channel/die.
	dieLocks []sim.Resource // one backing array; elements never copied
	gcLock   *sim.Resource

	// Block evacuation (see evacuate); gcLock's holder owns all of it.
	skip      []bool              // pickVictim scratch: open and free blocks
	evacSrc   []nand.PPA          // the victim's valid pages
	movers    [relocWorkers]mover // worker i's run scratch; [0] also the evacuating proc's
	relocDie  int                 // round-robin cursor over destination slots
	relocQ    []relocRun          // runs handed to the workers, relocQ[:relocHead] taken
	relocHead int
	relocErr  error              // first error of the batch
	reloc     *sim.Fan[struct{}] // the batch's workers

	o                              *obs.Set
	inj                            *fault.Injector
	cHostWrites, cHostReads        *obs.Counter
	cNandWrites, cGCReloc, cGCRuns *obs.Counter
	cRetired, cRetireReloc         *obs.Counter
	hWrite, hGCPause               *histo.H
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
	f.cRetired = reg.Counter("ftl.retired_blocks")
	f.cRetireReloc = reg.Counter("ftl.retire_relocations")
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

// WearStats summarizes erase wear across the usable blocks — the
// "SSD lifespan" side of the paper's WAF argument (Section IV-A).
// RetiredBlocks is a scan of blocks the NAND layer marked bad (worn
// out, erase failures or explicit retirement).
type WearStats struct {
	MinErase, MaxErase int
	TotalErase         uint64
	RetiredBlocks      int
}

// Wear scans the usable blocks and reports erase-cycle statistics.
func (f *FTL) Wear() WearStats {
	fc := f.flash.Config()
	w := WearStats{MinErase: int(^uint(0) >> 1)}
	for b := 0; b < fc.Blocks(); b++ {
		blk := nand.BlockID(b)
		if f.reserved(blk) {
			continue
		}
		if f.flash.IsBad(blk) {
			w.RetiredBlocks++
			continue
		}
		ec := f.flash.EraseCount(blk)
		if ec < w.MinErase {
			w.MinErase = ec
		}
		if ec > w.MaxErase {
			w.MaxErase = ec
		}
		w.TotalErase += uint64(ec)
	}
	if w.MinErase == int(^uint(0)>>1) {
		w.MinErase = 0
	}
	return w
}

// ExportedPages reports the number of host-visible logical pages.
func (f *FTL) ExportedPages() uint64 { return f.exportedPages }

// PageSize reports the logical/physical page size in bytes.
func (f *FTL) PageSize() int { return f.flash.Config().PageSize }

// Mapped reports whether an LBA currently has a physical mapping.
func (f *FTL) Mapped(lba LBA) bool {
	_, ok := f.PPAOf(lba)
	return ok
}

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

func (f *FTL) checkLBA(lba LBA) error {
	if uint64(lba) >= f.exportedPages {
		return fmt.Errorf("%w: %d >= %d", ErrLBAOutOfRange, lba, f.exportedPages)
	}
	return nil
}

// popFree removes and returns a free block, preferring one on the given
// die to preserve program parallelism. Returns false when none remain.
func (f *FTL) popFree(die int) (nand.BlockID, bool) {
	if len(f.free) == 0 {
		return 0, false
	}
	fc := f.flash.Config()
	for i, b := range f.free {
		if int(uint64(b)/uint64(fc.BlocksPerDie)) == die {
			f.free = append(f.free[:i], f.free[i+1:]...)
			return b, true
		}
	}
	b := f.free[0]
	f.free = f.free[1:]
	return b, true
}

// allocRun takes up to want consecutive pages of slot die's open block —
// as many as the block has left — opening a fresh block (preferably on
// that die) if it is full. Called with dieLocks[die] held.
func (f *FTL) allocRun(p *sim.Proc, die, want int) (base nand.PPA, n int, err error) {
	fc := f.flash.Config()
	ob := &f.open[die]
	for ob.nextPage < 0 || ob.nextPage >= fc.PagesPerBlock {
		blk, ok := f.popFree(die)
		if !ok {
			return 0, 0, ErrNoSpace
		}
		if f.flash.NextPage(blk) != 0 {
			if err := f.flash.EraseBlock(p, blk); err != nil {
				// Worn-out, erase-failed or bad block: drop it
				// and retry with another.
				if errors.Is(err, nand.ErrWornOut) || errors.Is(err, nand.ErrEraseFailed) {
					f.cRetired.Inc()
				}
				continue
			}
		}
		*ob = openBlock{blk: blk, nextPage: 0}
	}
	base = nand.PPA(uint64(ob.blk)*uint64(fc.PagesPerBlock) + uint64(ob.nextPage))
	n = min(want, fc.PagesPerBlock-ob.nextPage)
	ob.nextPage += n
	return base, n, nil
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
// as stored. The tag rides out of band with the page through NAND,
// garbage collection and block retirement, and ReadPageInto checks it.
// A program failure (injected grown defect) retires the block —
// evacuating its valid pages — and retries on another block, so callers
// above the FTL never see transient NAND program errors.
func (f *FTL) WritePageTagged(p *sim.Proc, lba LBA, data []byte, tag uint32) error {
	if err := f.checkLBA(lba); err != nil {
		return err
	}
	start := f.env.Now()
	for {
		if err := f.maybeGC(p); err != nil {
			return err
		}
		die := f.nextDie
		f.nextDie = (f.nextDie + 1) % len(f.open)
		f.dieLocks[die].Acquire(p)
		ppa, _, err := f.allocRun(p, die, 1)
		if err != nil {
			f.dieLocks[die].Release()
			return err
		}
		err = f.flash.ProgramPageTagged(p, ppa, data, tag)
		f.dieLocks[die].Release()
		if err == nil {
			if old, ok := f.lookup(lba); ok {
				f.invalidate(old)
			}
			f.bind(lba, ppa)
			f.cHostWrites.Inc()
			f.cNandWrites.Inc()
			// The histogram includes any inline GC pause — the
			// tail-latency effect the paper attributes to fsync-heavy
			// logging.
			f.hWrite.Observe(sim.Duration(f.env.Now() - start))
			return nil
		}
		switch {
		case errors.Is(err, nand.ErrProgramFailed):
			if rerr := f.retireBlock(p, f.flash.Config().BlockOf(ppa)); rerr != nil {
				return fmt.Errorf("ftl: retire after program failure: %w", rerr)
			}
		case errors.Is(err, nand.ErrBadBlock):
			// The open block was retired while we waited on the die
			// lock; drop the stale slot and retry.
			f.open[die] = openBlock{blk: 0, nextPage: -1}
		default:
			return fmt.Errorf("ftl: program failed: %w", err)
		}
	}
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
// (the controller answers from the map). An uncorrectable read
// (injected BER beyond the ECC budget) is absorbed here: the firmware
// salvages the raw page, relocates the block's valid pages elsewhere
// and retires it via MarkBad — the host sees the data, plus the latency
// of the rescue. Every mapped page is checked against the integrity tag
// it was written with, the salvaged one included; a mismatch is an
// error wrapping integrity.ErrPageCorrupt.
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
	tag, _, err := f.flash.ReadPageInto(p, ppa, dst)
	if err != nil {
		if !errors.Is(err, nand.ErrUncorrectable) {
			return err
		}
		// dst and tag already hold the page as the read found it: the
		// LBA may have been overwritten — and the page discarded — while
		// the retries ran, so the salvage charges its time and no more.
		if err := f.flash.SalvageRead(p, ppa); err != nil {
			return err
		}
		if rerr := f.retireBlock(p, f.flash.Config().BlockOf(ppa)); rerr != nil {
			return fmt.Errorf("ftl: retire after uncorrectable read: %w", rerr)
		}
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

// maybeGC runs greedy garbage collection until the free-block pool is
// back above the target. Inline (foreground) GC: the writing process
// pays the reclamation cost, which is exactly the tail-latency effect
// the paper attributes to fsync-heavy logging. gcLock serializes
// collectors; it is always taken before any die lock.
func (f *FTL) maybeGC(p *sim.Proc) error {
	if len(f.free) > f.gcFreeTarget {
		return nil
	}
	f.gcLock.Acquire(p)
	defer f.gcLock.Release()
	if len(f.free) > f.gcFreeTarget {
		// Another process collected while we waited on the lock.
		return nil
	}
	start := f.env.Now()
	sp := f.o.Tracer().Begin("ftl.gc", "ftl", "gc")
	err := f.collect(p)
	sp.End()
	f.hGCPause.Observe(sim.Duration(f.env.Now() - start))
	return err
}

// collect runs greedy reclamation until the pool is above target.
// Called with gcLock held.
func (f *FTL) collect(p *sim.Proc) error {
	for len(f.free) <= f.gcFreeTarget {
		victim, ok := f.pickVictim()
		if !ok {
			if len(f.free) == 0 {
				return ErrNoSpace
			}
			return nil // nothing reclaimable; still have some room
		}
		f.cGCRuns.Inc()
		// An uncorrectable victim page is salvaged, not fatal: the block
		// is about to be erased anyway.
		if err := f.evacuate(p, victim, false, f.cGCReloc, false); err != nil {
			return fmt.Errorf("ftl: gc relocation: %w", err)
		}
		if err := f.flash.EraseBlock(p, victim); err != nil {
			// Worn out or erase-failed: block retired, not returned to
			// the pool.
			if errors.Is(err, nand.ErrWornOut) || errors.Is(err, nand.ErrEraseFailed) {
				f.cRetired.Inc()
			}
			continue
		}
		f.free = append(f.free, victim)
	}
	return nil
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

// mover is the scratch of one relocating proc: a run's pages.
type mover struct {
	pages [relocRunPages]nand.RunPage
}

// relocRun is one run handed to the workers.
type relocRun struct {
	src     []nand.PPA
	salvage bool
	moved   *obs.Counter
}

// evacuate empties blk: every page still valid is moved elsewhere and
// rebound — the one routine garbage collection and retirement share.
// salvage reads raw (a condemned block's ECC verdicts are moot); moved
// counts the pages copied. Called with gcLock held, or — nested — from a
// run of an evacuation whose owner holds it, when a destination block
// failed to program and has to be retired in turn. A nested evacuation
// stays on its proc: the workers are its owner's, and waiting for them
// from one of them could wait forever.
func (f *FTL) evacuate(p *sim.Proc, blk nand.BlockID, salvage bool, moved *obs.Counter, nested bool) error {
	if nested {
		// The owner's page list, movers and workers are all in use.
		if src := f.validPages(blk, nil); len(src) > 0 {
			return f.moveRuns(p, new(mover), src, salvage, moved)
		}
		return nil
	}
	f.evacSrc = f.validPages(blk, f.evacSrc[:0])
	src := f.evacSrc
	switch {
	case len(src) == 0:
		return nil // nothing to move: no proc woken, no time spent
	case len(src) <= relocRunPages:
		// One run: handing it over would buy two process switches.
		return f.moveRuns(p, &f.movers[0], src, salvage, moved)
	}
	f.relocQ, f.relocHead, f.relocErr = f.relocQ[:0], 0, nil
	for per := runLen(len(src)); len(src) > 0; src = src[min(per, len(src)):] {
		f.relocQ = append(f.relocQ, relocRun{src[:min(per, len(src))], salvage, moved})
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

// moveRuns moves src run after run on the calling proc.
func (f *FTL) moveRuns(p *sim.Proc, m *mover, src []nand.PPA, salvage bool, moved *obs.Counter) error {
	for per := runLen(len(src)); len(src) > 0; src = src[min(per, len(src)):] {
		if err := f.moveRun(p, m, relocRun{src[:min(per, len(src))], salvage, moved}); err != nil {
			return err
		}
	}
	return nil
}

// relocWorker is relocation worker i of a batch: it moves queued runs,
// one at a time, until none is left. A failed run does not stop it; the
// batch reports the first error in time, which is not always the first
// a worker returns.
func (f *FTL) relocWorker(w *sim.Proc, _ *struct{}, i int) error {
	for f.relocHead < len(f.relocQ) {
		run := f.relocQ[f.relocHead]
		f.relocHead++
		if err := f.moveRun(w, &f.movers[i], run); err != nil && f.relocErr == nil {
			f.relocErr = err
		}
	}
	return nil
}

// moveRun moves one run: read the pages, drop those the host overwrote
// or trimmed while the read was in flight, land the rest.
func (f *FTL) moveRun(p *sim.Proc, m *mover, run relocRun) error {
	pages := m.pages[:len(run.src)]
	for i, src := range run.src {
		pages[i] = nand.RunPage{PPA: src}
	}
	if err := f.flash.ReadRun(p, pages, run.salvage); err != nil {
		return fmt.Errorf("ftl: relocation read: %w", err)
	}
	live := pages[:0]
	for _, pg := range pages {
		if _, valid := f.owner(pg.PPA); !valid {
			continue
		}
		if pg.Err != nil {
			// Beyond the ECC budget: recover this page raw, at full
			// retry latency, and carry on with the run. The page's
			// bytes are intact; they move at the rebind.
			if err := f.flash.SalvageRead(p, pg.PPA); err != nil {
				return fmt.Errorf("ftl: relocation salvage: %w", err)
			}
			pg.Err = nil
		}
		live = append(live, pg)
	}
	return f.land(p, live, -1, run.moved)
}

// land programs copy-back targets for valid pages (pages[i].PPA is where
// each lives now) into open blocks and rebinds their mappings — the one
// place host and relocation map updates are arbitrated. slot names the
// open-block slot to use; slot < 0 takes, run by run, a slot whose die
// is idle. Bytes and integrity tags move with their pages at the
// rebind, after the whole run has programmed. A destination block that
// fails to program is retired in turn (cascade, which terminates because
// every retirement marks one more of the finitely many blocks bad) and
// the rest of the run lands elsewhere. Called under gcLock (see
// evacuate).
func (f *FTL) land(p *sim.Proc, pages []nand.RunPage, slot int, moved *obs.Counter) error {
	for len(pages) > 0 {
		d := slot
		if d < 0 {
			d = f.lockIdleSlot(p)
		} else {
			f.dieLocks[d].Acquire(p)
		}
		// A run that outgrows the open block goes on in the slot's next
		// block rather than on another die: the free block a relocation
		// uses up is then taken while the collection that caused it is
		// still counting, not by a later host write.
		var base nand.PPA
		var err error
		for err == nil && len(pages) > 0 {
			var n, done int
			if base, n, err = f.allocRun(p, d, len(pages)); err != nil {
				break
			}
			done, err = f.flash.ProgramRun(p, base, n)
			for i, pg := range pages[:done] {
				f.cNandWrites.Inc()
				moved.Inc()
				// The run yielded since the page was read: rebind only if
				// the mapping is still the page that was read. A host
				// write (or trim) that landed meanwhile wins, and the
				// copy stays unmapped, without bytes.
				f.rebind(pg.PPA, base+nand.PPA(i))
			}
			pages = pages[done:]
		}
		f.dieLocks[d].Release()
		switch {
		case err == nil:
		case errors.Is(err, nand.ErrProgramFailed):
			if rerr := f.retireLocked(p, f.flash.Config().BlockOf(base), true); rerr != nil {
				return rerr
			}
		case errors.Is(err, nand.ErrBadBlock):
			// The open block was retired underneath this slot (cascade
			// from another relocation); drop it and retry.
			f.open[d] = openBlock{blk: 0, nextPage: -1}
		default:
			return err
		}
	}
	return nil
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

// lockIdleSlot locks an open-block slot for a relocation run: the first
// from the round-robin cursor whose lock is free and whose NAND die is
// idle at this instant, so concurrent runs fan out over the array and
// stay off dies that host reads or other runs are using. The die is the
// one the slot will program — its open block's, which popFree's
// fallback can put on another die than the slot's number. With nothing
// idle it queues on the cursor's slot.
func (f *FTL) lockIdleSlot(p *sim.Proc) int {
	fc := f.flash.Config()
	n := len(f.open)
	for i := 0; i < n; i++ {
		d := (f.relocDie + i) % n
		die := d
		if ob := f.open[d]; ob.nextPage >= 0 && ob.nextPage < fc.PagesPerBlock {
			die = int(uint64(ob.blk) / uint64(fc.BlocksPerDie))
		}
		if f.flash.DieIdle(die) && f.dieLocks[d].TryAcquire() {
			f.relocDie = (d + 1) % n
			return d
		}
	}
	d := f.relocDie
	f.relocDie = (d + 1) % n
	f.dieLocks[d].Acquire(p)
	return d
}

// retireBlock takes the block out of service: its valid pages are
// evacuated elsewhere and the block is marked bad, never to be
// allocated again. Public entry point for the write/read paths;
// relocation (which runs under gcLock already) calls retireLocked.
func (f *FTL) retireBlock(p *sim.Proc, blk nand.BlockID) error {
	f.gcLock.Acquire(p)
	defer f.gcLock.Release()
	return f.retireLocked(p, blk, false)
}

// retireLocked implements retirement under gcLock (nested: from a
// relocation run, see evacuate). Marking the block bad happens first so
// that any cascading retirement (a relocation target failing to
// program) cannot loop back into this block.
func (f *FTL) retireLocked(p *sim.Proc, blk nand.BlockID, nested bool) error {
	if f.flash.IsBad(blk) {
		return nil // already retired (cascade re-entry)
	}
	f.flash.MarkBad(blk)
	f.cRetired.Inc()
	for i, b := range f.free {
		if b == blk {
			f.free = append(f.free[:i], f.free[i+1:]...)
			break
		}
	}
	for i := range f.open {
		if f.open[i].nextPage >= 0 && f.open[i].blk == blk {
			f.open[i] = openBlock{blk: 0, nextPage: -1}
		}
	}
	// Evacuate the surviving valid pages with raw reads: the block is
	// already condemned, so ECC verdicts are moot.
	if err := f.evacuate(p, blk, true, f.cRetireReloc, nested); err != nil {
		return fmt.Errorf("ftl: retire relocation: %w", err)
	}
	return nil
}

// pickVictim selects the closed block with the fewest valid pages
// (greedy; the lowest block wins a tie). Open and free blocks are
// excluded, and so is each die's reserved tail, which the scan never
// enters.
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
			if f.skip[b] || f.flash.IsBad(blk) {
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

// ScrubResult reports what one patrol read found and did.
type ScrubResult struct {
	Mapped   bool   // LBA had a physical mapping (unmapped pages are skipped)
	Retries  int    // ECC read-retries the patrol read needed (correctable errors)
	Salvaged bool   // page was uncorrectable; raw salvage + block retirement ran
	Repaired bool   // page was rewritten to a fresh location
	Data     []byte // page contents as read (post-correction)
	Corrupt  bool   // contents no longer match the page's integrity tag
}

// ScrubPage patrol-reads one logical page on behalf of the background
// scrubber. A page whose read needed ECC retries (accumulated raw bit
// errors still within the correction budget) is rewritten to a fresh
// location so the error count resets before it can grow uncorrectable;
// an already-uncorrectable page takes the salvage + retire path. The
// rewrite is guarded against concurrent host writes and GC: it only
// rebinds the mapping if the LBA still points at the physical page the
// patrol read, and counts as a NAND write, not a host write. A page
// whose contents fail their integrity check is reported Corrupt.
func (f *FTL) ScrubPage(p *sim.Proc, lba LBA) (ScrubResult, error) {
	var r ScrubResult
	if err := f.checkLBA(lba); err != nil {
		return r, err
	}
	ppa, ok := f.lookup(lba)
	if !ok {
		return r, nil
	}
	r.Mapped = true
	data := make([]byte, f.PageSize())
	tag, retries, err := f.flash.ReadPageInto(p, ppa, data)
	if err != nil && !errors.Is(err, nand.ErrUncorrectable) {
		return r, err
	}
	r.Data, r.Corrupt = data, integrity.Check(data, tag) != nil
	if err != nil {
		// As in ReadPageInto: keep what the read captured.
		if err := f.flash.SalvageRead(p, ppa); err != nil {
			return r, err
		}
		// retireBlock relocates every surviving valid page — including
		// this one — off the condemned block.
		if rerr := f.retireBlock(p, f.flash.Config().BlockOf(ppa)); rerr != nil {
			return r, fmt.Errorf("ftl: scrub retire: %w", rerr)
		}
		r.Salvaged, r.Repaired = true, true
		return r, nil
	}
	r.Retries = retries
	if retries == 0 {
		return r, nil
	}
	f.gcLock.Acquire(p)
	defer f.gcLock.Release()
	if cur, ok := f.lookup(lba); !ok || cur != ppa {
		// The host or GC moved the page while we read it; the fresh copy
		// starts with zero accumulated errors, nothing left to repair.
		return r, nil
	}
	if err := f.relocLocked(p, ppa); err != nil {
		return r, fmt.Errorf("ftl: scrub rewrite: %w", err)
	}
	r.Repaired = true
	return r, nil
}

// relocLocked moves one valid page, already read, into the open block
// of the die after its own — scrub's single-page repair, a copy-back
// like any relocation. Called with gcLock held.
func (f *FTL) relocLocked(p *sim.Proc, src nand.PPA) error {
	fc := f.flash.Config()
	page := [1]nand.RunPage{{PPA: src}}
	return f.land(p, page[:], (fc.DieOf(src)+1)%fc.Dies(), nil)
}
