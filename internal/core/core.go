// Package core implements the 2B-SSD: a dual, byte- and
// block-addressable solid-state drive (Bae et al., ISCA 2018).
//
// The device piggybacks on an ULL-class NVMe SSD (package device) and
// adds the four co-designed components of the paper's Section III:
//
//   - BAR manager: a second BAR (BAR1) whose MMIO accesses are
//     redirected into the BA-buffer region of the SSD-internal DRAM
//     (package pcie models the host side: write combining, non-posted
//     reads, clflush/mfence and write-verify reads).
//   - BA-buffer manager: a firmware mapping table binding BA-buffer
//     offsets to LBA ranges, with an internal DRAM<->NAND datapath
//     driven by BA_PIN / BA_FLUSH.
//   - LBA checker: gates block I/O to NAND pages currently pinned into
//     the BA-buffer, so the two datapaths stay consistent.
//   - Read DMA engine + recovery manager: accelerated bulk reads of
//     BA-buffer contents, and capacitor-backed dump/restore that turns
//     the volatile BA-buffer into persistent memory.
package core

import (
	"errors"
	"fmt"

	"twobssd/internal/device"
	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/integrity"
	"twobssd/internal/obs"
	"twobssd/internal/pcie"
	"twobssd/internal/sim"
)

// EID identifies one BA-buffer mapping-table entry (0..MaxEntries-1).
type EID int

// Entry is one row of the BA-buffer mapping table (paper Fig 2):
// a pinned binding between a BA-buffer byte range and an LBA range.
type Entry struct {
	ID     EID
	Offset int     // start offset in the BA-buffer, page aligned
	LBA    ftl.LBA // first logical page of the pinned file range
	Pages  int     // length in 4 KB pages
}

// Bytes returns the pinned length in bytes.
func (e Entry) Bytes(pageSize int) int { return e.Pages * pageSize }

// Errors reported by the 2B-SSD APIs.
var (
	ErrBadEID       = errors.New("2bssd: EID out of range")
	ErrEntryInUse   = errors.New("2bssd: entry already in use")
	ErrNoEntry      = errors.New("2bssd: no such mapping entry")
	ErrOverlap      = errors.New("2bssd: range overlaps an existing mapping")
	ErrUnaligned    = errors.New("2bssd: offset/length not page aligned")
	ErrOutOfBuffer  = errors.New("2bssd: range exceeds BA-buffer")
	ErrOutOfLBA     = errors.New("2bssd: LBA range exceeds device capacity")
	ErrPinnedRange  = errors.New("2bssd: block I/O gated, LBA range pinned to BA-buffer")
	ErrPowerIsOff   = errors.New("2bssd: device is powered off")
	ErrInsufficient = errors.New("2bssd: capacitor energy insufficient for dump")
	ErrDumpTorn     = errors.New("2bssd: capacitor dump torn (power died mid-dump)")
)

// Firmware and DMA costs of the prototype, calibrations rather than
// design choices.
const (
	// The internal datapath (BA_PIN / BA_FLUSH) runs on armWorkers ARM
	// cores, each charging armPerPageCost per 4 KB page moved: the
	// paper's ~2.2 GB/s internal bandwidth ceiling.
	armWorkers     = 2
	armPerPageCost = 3700 * sim.Nanosecond

	// apiBaseCost is the ioctl + vendor-unique-command round trip of
	// BA_PIN/BA_FLUSH; infoCost the lighter BA_GET_ENTRY_INFO.
	apiBaseCost = 5 * sim.Microsecond
	infoCost    = 2 * sim.Microsecond

	// The read DMA engine: setup/interrupt overhead plus streaming
	// rate, so a 4 KB DMA read takes ~58 µs (2.6x faster than plain
	// MMIO) and pays off from ~2 KB upward.
	dmaBaseCost = 37500 * sim.Nanosecond
	dmaMBps     = 200
)

// TwoBSSD is a simulated dual byte-/block-addressable SSD.
type TwoBSSD struct {
	env *sim.Env
	cfg Config

	dev   *device.Device
	babuf []byte // BA-buffer DRAM (device-side committed view)
	win   *pcie.Window

	table []Entry // mapping table, indexed by EID; Pages == 0 marks a free entry

	arm      *sim.Resource // firmware cores driving the internal datapath
	moveJobs []*moveJob    // idle multi-page internalMove fan-outs

	powered bool
	rec     *recovery
	scrub   *scrubber

	// Metrics ("2bssd.*" in the obs registry).
	o                           *obs.Set
	inj                         *fault.Injector
	gDumpEnergy                 *obs.Gauge
	cPins, cFlushes, cSyncs     *obs.Counter
	cInfos, cDMAReads           *obs.Counter
	cPagesPinned, cPagesFlushed *obs.Counter
	cDMABytes, cGateRejects     *obs.Counter
	hPin, hFlush, hSync, hDMA   *histo.H
}

// New builds a 2B-SSD. Panics on invalid configuration
// (construction-time misuse).
func New(env *sim.Env, cfg Config) *TwoBSSD {
	if cfg.BABufferBytes <= 0 || cfg.MaxEntries <= 0 {
		panic("2bssd: BABufferBytes and MaxEntries must be > 0")
	}
	base := cfg.Base
	ps := base.Nand.PageSize
	if cfg.BABufferBytes%ps != 0 {
		panic("2bssd: BABufferBytes must be a multiple of the page size")
	}
	// Reserve the recovery dump area: enough last-blocks-per-die to
	// hold the BA-buffer plus one metadata page, spread die-parallel.
	bufPages := cfg.BABufferBytes / ps
	dumpPages := bufPages + 1
	pagesPerDie := base.Nand.PagesPerBlock
	perDie := (dumpPages + base.Nand.Dies()*pagesPerDie - 1) / (base.Nand.Dies() * pagesPerDie)
	if base.FTL.ReservedPerDie < perDie {
		base.FTL.ReservedPerDie = perDie
	}
	s := &TwoBSSD{
		env:     env,
		cfg:     cfg,
		dev:     device.New(env, base),
		babuf:   make([]byte, cfg.BABufferBytes),
		table:   make([]Entry, cfg.MaxEntries),
		arm:     env.NewResource("2bssd.arm", armWorkers),
		powered: true,
		o:       obs.Of(env),
		inj:     fault.Of(env),
	}
	reg := s.o.Registry()
	s.gDumpEnergy = reg.Gauge("2bssd.dump_energy_j")
	s.cPins = reg.Counter("2bssd.pins")
	s.cFlushes = reg.Counter("2bssd.flushes")
	s.cSyncs = reg.Counter("2bssd.syncs")
	s.cInfos = reg.Counter("2bssd.infos")
	s.cDMAReads = reg.Counter("2bssd.dma_reads")
	s.cPagesPinned = reg.Counter("2bssd.pages_pinned")
	s.cPagesFlushed = reg.Counter("2bssd.pages_flushed")
	s.cDMABytes = reg.Counter("2bssd.dma_bytes")
	s.cGateRejects = reg.Counter("2bssd.gate_rejects")
	s.hPin = reg.Histo("2bssd.pin_ns")
	s.hFlush = reg.Histo("2bssd.flush_ns")
	s.hSync = reg.Histo("2bssd.sync_ns")
	s.hDMA = reg.Histo("2bssd.dma_read_ns")
	reg.GaugeFunc("2bssd.pinned_entries", func() float64 { return float64(len(s.Entries())) })
	s.win = pcie.NewWindow(env, cfg.MMIO, s.babuf)
	s.rec = newRecovery(s)
	s.scrub = newScrubber(s)
	s.dev.SetGate(checker{s})
	return s
}

// Config returns the device configuration.
func (s *TwoBSSD) Config() Config { return s.cfg }

// Device returns the underlying block device (the piggybacked SSD).
// Block I/O issued here passes through the LBA checker.
func (s *TwoBSSD) Device() *device.Device { return s.dev }

// Mmio returns the BAR1 window mapped over the BA-buffer. Applications
// access it with Window.Write/Read/Sync — the mmap()ed datapath.
func (s *TwoBSSD) Mmio() *pcie.Window { return s.win }

// PageSize returns the device page size in bytes.
func (s *TwoBSSD) PageSize() int { return s.dev.PageSize() }

// BufferPages returns the BA-buffer capacity in pages.
func (s *TwoBSSD) BufferPages() int { return len(s.babuf) / s.PageSize() }

// checker is the LBA checker: the hardware logic snooping every block
// I/O request for collisions with pinned ranges (Section III-A2).
type checker struct{ s *TwoBSSD }

func (c checker) check(lba ftl.LBA, pages int) error {
	for _, e := range c.s.table {
		if e.Pages == 0 {
			continue
		}
		if lba < e.LBA+ftl.LBA(e.Pages) && e.LBA < lba+ftl.LBA(pages) {
			return fmt.Errorf("%w: [%d,%d) pinned by entry %d",
				ErrPinnedRange, e.LBA, e.LBA+ftl.LBA(e.Pages), e.ID)
		}
	}
	return nil
}

func (c checker) CheckRead(lba ftl.LBA, pages int) error  { return c.reject(c.check(lba, pages)) }
func (c checker) CheckWrite(lba ftl.LBA, pages int) error { return c.reject(c.check(lba, pages)) }

// reject records a gate rejection (counter + trace instant) on its way
// back to the block path.
func (c checker) reject(err error) error {
	if err != nil {
		c.s.cGateRejects.Inc()
		c.s.o.Tracer().Instant("2bssd.checker", "2bssd", "gate_reject")
	}
	return err
}

func (s *TwoBSSD) checkEID(eid EID) error {
	if int(eid) < 0 || int(eid) >= len(s.table) {
		return fmt.Errorf("%w: %d", ErrBadEID, eid)
	}
	return nil
}

func (s *TwoBSSD) checkPower() error {
	if !s.powered {
		return ErrPowerIsOff
	}
	return nil
}

// BAPin implements BA_PIN(EID, offset, LBA, length): loads the NAND
// pages [lba, lba+pages) into the BA-buffer at offset through the
// internal datapath, pins them, and records the mapping-table entry.
// The pinned LBA range is gated against block I/O until BA_FLUSH.
func (s *TwoBSSD) BAPin(p *sim.Proc, eid EID, offset int, lba ftl.LBA, pages int) error {
	if err := s.checkPower(); err != nil {
		return err
	}
	if err := s.checkEID(eid); err != nil {
		return err
	}
	if s.table[eid].Pages != 0 {
		return fmt.Errorf("%w: %d", ErrEntryInUse, eid)
	}
	ps := s.PageSize()
	if offset%ps != 0 || pages <= 0 {
		return fmt.Errorf("%w: offset %d pages %d", ErrUnaligned, offset, pages)
	}
	if offset+pages*ps > len(s.babuf) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBuffer, offset, offset+pages*ps, len(s.babuf))
	}
	if uint64(lba)+uint64(pages) > s.dev.Pages() {
		return fmt.Errorf("%w: [%d,%d)", ErrOutOfLBA, lba, uint64(lba)+uint64(pages))
	}
	for _, e := range s.table {
		if e.Pages == 0 {
			continue
		}
		bufOverlap := offset < e.Offset+e.Pages*ps && e.Offset < offset+pages*ps
		lbaOverlap := lba < e.LBA+ftl.LBA(e.Pages) && e.LBA < lba+ftl.LBA(pages)
		if bufOverlap || lbaOverlap {
			return fmt.Errorf("%w: with entry %d", ErrOverlap, e.ID)
		}
	}
	start := s.env.Now()
	sp := s.o.Tracer().BeginProc(p, "2bssd", "ba_pin")
	defer sp.End()
	p.Sleep(apiBaseCost)
	// Order writes-before-pin: any block writes still sitting in the
	// base device's buffer must reach NAND before the internal read.
	if err := s.dev.Drain(p); err != nil {
		return err
	}
	// Install the entry (and the gate) before moving data so block I/O
	// cannot race the internal datapath.
	ent := Entry{ID: eid, Offset: offset, LBA: lba, Pages: pages}
	s.table[eid] = ent
	// Internal datapath: die-parallel reads, issue rate capped by the
	// ARM firmware cores.
	err := s.internalMove(p, ent, false)
	if err != nil {
		s.table[eid] = Entry{}
		return err
	}
	s.cPins.Inc()
	s.cPagesPinned.Add(uint64(pages))
	s.hPin.Observe(sim.Duration(s.env.Now() - start))
	return nil
}

// BAFlush implements BA_FLUSH(EID): writes the entry's BA-buffer
// contents to its pinned NAND pages over the internal datapath, then
// removes the mapping entry (unpinning the range).
func (s *TwoBSSD) BAFlush(p *sim.Proc, eid EID) error {
	if err := s.checkPower(); err != nil {
		return err
	}
	if err := s.checkEID(eid); err != nil {
		return err
	}
	ent := s.table[eid]
	if ent.Pages == 0 {
		return fmt.Errorf("%w: %d", ErrNoEntry, eid)
	}
	start := s.env.Now()
	sp := s.o.Tracer().BeginProc(p, "2bssd", "ba_flush")
	defer sp.End()
	p.Sleep(apiBaseCost)
	if err := s.internalMove(p, ent, true); err != nil {
		return err
	}
	s.table[eid] = Entry{}
	s.cFlushes.Inc()
	s.cPagesFlushed.Add(uint64(ent.Pages))
	s.hFlush.Observe(sim.Duration(s.env.Now() - start))
	return nil
}

// internalMove drives the internal DRAM<->NAND datapath for one entry.
// write=false loads NAND into the BA-buffer (pin); write=true stores
// the BA-buffer to NAND (flush). The 2B-SSD cannot tell which bytes
// are dirty (the CPU wrote them directly), so a flush always moves the
// whole entry — exactly the paper's Section III-C semantics. The move
// works from its own copy of the entry, which a power cut clearing the
// table mid-move does not change.
func (s *TwoBSSD) internalMove(p *sim.Proc, ent Entry, write bool) error {
	name := "pin_move"
	if write {
		name = "flush_move"
	}
	sp := s.o.Tracer().Begin("2bssd.datapath", "2bssd", name)
	defer sp.End()
	// Single-page entries (the common case for log windows) run inline:
	// no fan-out process or WaitGroup — same virtual timing.
	if ent.Pages == 1 {
		return s.movePage(p, ent, write, 0)
	}
	j := s.getMoveJob()
	j.ent, j.write = ent, write
	j.wg.Add(ent.Pages)
	for i := 0; i < ent.Pages; i++ {
		s.env.GoIdx("2bssd.mv", i, j.page)
	}
	j.wg.Wait(p)
	err := j.firstErr
	s.putMoveJob(j)
	return err
}

// movePage moves page i of ent over the internal datapath (see
// internalMove).
func (s *TwoBSSD) movePage(w *sim.Proc, ent Entry, write bool, i int) error {
	ps := s.PageSize()
	s.arm.Use(w, armPerPageCost)
	off := ent.Offset + i*ps
	lba := ent.LBA + ftl.LBA(i)
	if write {
		// BA_FLUSH is the byte path's host boundary: the page's
		// content is fixed here for the first time (MMIO stores
		// have no page-granular commit point), so the integrity
		// tag is born here.
		tag := integrity.PageCRC(s.babuf[off : off+ps])
		if err := s.dev.FTL().WritePageTagged(w, lba, s.babuf[off:off+ps], tag); err != nil {
			return err
		}
		s.inj.Tick(fault.EvBAFlushPage)
		return nil
	}
	// Pin lands NAND pages straight in the BA-buffer frame.
	return s.dev.FTL().ReadPageInto(w, lba, s.babuf[off:off+ps])
}

// moveJob is one multi-page internalMove's fan-out state: the page
// workers' shared body (bound once), their WaitGroup, and the first
// error any of them hit. Jobs are pooled on the TwoBSSD, so a fan-out
// allocates nothing in steady state; concurrent moves each hold their
// own.
type moveJob struct {
	s        *TwoBSSD
	ent      Entry
	write    bool
	firstErr error
	wg       *sim.WaitGroup
	page     func(w *sim.Proc, i int) // j.run
}

func (j *moveJob) run(w *sim.Proc, i int) {
	defer j.wg.Done()
	if err := j.s.movePage(w, j.ent, j.write, i); err != nil && j.firstErr == nil {
		j.firstErr = err
	}
}

func (s *TwoBSSD) getMoveJob() *moveJob {
	if n := len(s.moveJobs); n > 0 {
		j := s.moveJobs[n-1]
		s.moveJobs[n-1] = nil
		s.moveJobs = s.moveJobs[:n-1]
		return j
	}
	j := &moveJob{s: s, wg: s.env.NewWaitGroup("2bssd.move")}
	j.page = j.run
	return j
}

// putMoveJob returns a finished job to the pool, dropping its entry and
// error so neither outlives the move.
func (s *TwoBSSD) putMoveJob(j *moveJob) {
	j.ent, j.firstErr = Entry{}, nil
	s.moveJobs = append(s.moveJobs, j)
}

// BASync implements BA_SYNC(EID): the three-step durability protocol —
// look up the entry's BA-buffer pages, clflush+mfence them, and issue
// the write-verify read. Afterwards every prior MMIO store to the
// window is durable in the (capacitor-protected) BA-buffer.
func (s *TwoBSSD) BASync(p *sim.Proc, eid EID) error {
	if err := s.checkPower(); err != nil {
		return err
	}
	start := s.env.Now()
	sp := s.o.Tracer().BeginProc(p, "2bssd", "ba_sync")
	defer sp.End()
	ent, err := s.BAGetEntryInfo(p, eid)
	if err != nil {
		return err
	}
	if err := s.win.Sync(p, ent.Offset, ent.Pages*s.PageSize()); err != nil {
		return err
	}
	s.cSyncs.Inc()
	s.hSync.Observe(sim.Duration(s.env.Now() - start))
	return nil
}

// BAGetEntryInfo implements BA_GET_ENTRY_INFO(EID).
func (s *TwoBSSD) BAGetEntryInfo(p *sim.Proc, eid EID) (Entry, error) {
	if err := s.checkPower(); err != nil {
		return Entry{}, err
	}
	if err := s.checkEID(eid); err != nil {
		return Entry{}, err
	}
	ent := s.table[eid]
	if ent.Pages == 0 {
		return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, eid)
	}
	p.Sleep(infoCost)
	s.cInfos.Inc()
	return ent, nil
}

// BAReadDMA implements BA_READ_DMA(EID, dst, length): programs the
// read DMA engine to copy up to len(dst) bytes of the entry's
// BA-buffer contents to the host. The engine reads the device-side
// (committed) view: MMIO stores not yet synced are NOT visible — the
// same hazard a real posted-write window has.
func (s *TwoBSSD) BAReadDMA(p *sim.Proc, eid EID, dst []byte) (int, error) {
	if err := s.checkPower(); err != nil {
		return 0, err
	}
	ent, err := s.BAGetEntryInfo(p, eid)
	if err != nil {
		return 0, err
	}
	n := len(dst)
	if max := ent.Pages * s.PageSize(); n > max {
		n = max
	}
	start := s.env.Now()
	sp := s.o.Tracer().BeginProc(p, "2bssd", "ba_read_dma")
	p.Sleep(dmaBaseCost)
	p.Sleep(sim.Duration(int64(n) * 1000 / dmaMBps))
	sp.End()
	copy(dst[:n], s.babuf[ent.Offset:ent.Offset+n])
	s.cDMAReads.Inc()
	s.cDMABytes.Add(uint64(n))
	s.hDMA.Observe(sim.Duration(s.env.Now() - start))
	return n, nil
}

// PMRReadDMA copies length bytes from the device DRAM window at off to
// the host, using the read DMA engine but WITHOUT a mapping entry — the
// access mode of an NVMe "Persistent Memory Region" (PMR) device, the
// related-work comparison of Section VII. A PMR exposes byte access to
// device NVRAM but has no internal NVRAM<->NAND datapath, so moving
// data to flash must round-trip through the host.
func (s *TwoBSSD) PMRReadDMA(p *sim.Proc, off int, dst []byte) (int, error) {
	if err := s.checkPower(); err != nil {
		return 0, err
	}
	n := len(dst)
	if off < 0 || off+n > len(s.babuf) {
		return 0, fmt.Errorf("%w: [%d,%d)", ErrOutOfBuffer, off, off+n)
	}
	start := s.env.Now()
	sp := s.o.Tracer().BeginProc(p, "2bssd", "pmr_read_dma")
	p.Sleep(dmaBaseCost)
	p.Sleep(sim.Duration(int64(n) * 1000 / dmaMBps))
	sp.End()
	copy(dst, s.babuf[off:off+n])
	s.cDMAReads.Inc()
	s.cDMABytes.Add(uint64(n))
	s.hDMA.Observe(sim.Duration(s.env.Now() - start))
	return n, nil
}

// Entries returns a snapshot of the live mapping-table entries.
func (s *TwoBSSD) Entries() []Entry {
	var out []Entry
	for _, e := range s.table {
		if e.Pages != 0 {
			out = append(out, e)
		}
	}
	return out
}
