// Package device models PCIe-attached NVMe block SSDs on top of the
// nand/ftl substrate: a host submission/completion path, firmware cores,
// a power-loss-protected write buffer with background drain, and a
// shared PCIe link.
//
// Two calibrated profiles reproduce the paper's comparison devices:
// DCSSD (a PM963-class datacenter SSD) and ULLSSD (a Z-SSD-class
// ultra-low-latency SSD). The 2B-SSD piggybacks on the ULL profile and
// adds the byte-addressable datapath in package core.
package device

import (
	"errors"
	"fmt"

	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// Profile describes one SSD model: geometry, NAND timing, and the
// latency contributions of its command path. The defaults below are
// calibrated so the simulated Fig 7/8 curves land on the paper's
// measured numbers.
type Profile struct {
	Name string

	Nand nand.Config
	FTL  ftl.Config

	// SubmissionLatency covers the host driver, doorbell and command
	// fetch; CompletionLatency covers the interrupt and host completion
	// handling.
	SubmissionLatency sim.Duration
	CompletionLatency sim.Duration

	// Firmware processing: per-command cost plus per-page cost, on a
	// pool of FirmwareCores.
	FirmwareCores int
	FwPerCmdCost  sim.Duration
	FwPerPageCost sim.Duration

	// PCIeMBps is the host-link bandwidth (PCIe Gen3 x4 ~ 3200 MB/s).
	PCIeMBps int

	// Write buffer (power-loss protected on both comparison devices):
	// writes complete once buffered; DrainWorkers firmware threads move
	// buffered pages to NAND in the background.
	WriteBufferPages int
	BufferAckLatency sim.Duration
	DrainWorkers     int
}

// DCSSD returns the datacenter-SSD profile (PM963-class, TLC-like
// timing). Calibrated targets: 4 KB QD1 read ≈ 83 µs, write ≈ 17 µs,
// large-request read ≈ 2.0 GB/s, write ≈ 1.5 GB/s.
func DCSSD() Profile {
	return Profile{
		Name: "DC-SSD",
		Nand: nand.Config{
			Channels:       8,
			DiesPerChannel: 8,
			BlocksPerDie:   64,
			PagesPerBlock:  64,
			PageSize:       4096,
			ReadLatency:    68 * sim.Microsecond,
			ProgramLatency: 170 * sim.Microsecond,
			EraseLatency:   5 * sim.Millisecond,
			ChannelMBps:    800,
		},
		FTL:               ftl.Config{OverProvision: 0.07},
		SubmissionLatency: 3 * sim.Microsecond,
		CompletionLatency: 1 * sim.Microsecond,
		FirmwareCores:     2,
		FwPerCmdCost:      1500 * sim.Nanosecond,
		FwPerPageCost:     3500 * sim.Nanosecond,
		PCIeMBps:          3200,
		WriteBufferPages:  1024,
		BufferAckLatency:  10200 * sim.Nanosecond,
		DrainWorkers:      64,
	}
}

// ULLSSD returns the ultra-low-latency profile (Z-SSD-class, SLC
// Z-NAND timing). Calibrated targets: 4 KB QD1 read ≈ 13.2 µs, write
// ≈ 10 µs, large-request bandwidth ≈ 3.2 GB/s (PCIe-limited).
func ULLSSD() Profile {
	return Profile{
		Name: "ULL-SSD",
		Nand: nand.Config{
			Channels:       8,
			DiesPerChannel: 8,
			BlocksPerDie:   64,
			PagesPerBlock:  64,
			PageSize:       4096,
			ReadLatency:    3 * sim.Microsecond,
			ProgramLatency: 50 * sim.Microsecond,
			EraseLatency:   3 * sim.Millisecond,
			ChannelMBps:    1200,
		},
		FTL:               ftl.Config{OverProvision: 0.07},
		SubmissionLatency: 3 * sim.Microsecond,
		CompletionLatency: 1200 * sim.Nanosecond,
		FirmwareCores:     8,
		FwPerCmdCost:      1 * sim.Microsecond,
		FwPerPageCost:     400 * sim.Nanosecond,
		PCIeMBps:          3200,
		WriteBufferPages:  1024,
		BufferAckLatency:  3500 * sim.Nanosecond,
		DrainWorkers:      64,
	}
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if err := p.Nand.Validate(); err != nil {
		return err
	}
	switch {
	case p.FirmwareCores <= 0:
		return errors.New("device: FirmwareCores must be > 0")
	case p.PCIeMBps <= 0:
		return errors.New("device: PCIeMBps must be > 0")
	case p.WriteBufferPages <= 0:
		return errors.New("device: WriteBufferPages must be > 0")
	case p.DrainWorkers <= 0:
		return errors.New("device: DrainWorkers must be > 0")
	}
	return nil
}

// Gate lets an upper layer veto block I/O to specific LBA ranges. The
// 2B-SSD LBA checker uses this to protect NAND pages currently pinned
// into the BA-buffer (paper Section III-A2).
type Gate interface {
	// CheckRead/CheckWrite return a non-nil error to reject the access.
	CheckRead(lba ftl.LBA, pages int) error
	CheckWrite(lba ftl.LBA, pages int) error
}

// Errors reported by the device.
var (
	ErrUnaligned = errors.New("device: length not page aligned")
	ErrGated     = errors.New("device: LBA range gated (pinned to BA-buffer)")
)

type bufEntry struct {
	lba  ftl.LBA
	data []byte
	tag  uint32 // integrity.PageCRC(data), stamped at the host boundary
}

// taggedPage is one popped-but-unpersisted write-buffer copy.
type taggedPage struct {
	data []byte
	tag  uint32
}

// lbaPend tracks one LBA's in-flight drain state: tickets [head, tail)
// are popped copies not yet on NAND, pages holds their data oldest
// first (pagesHead is the consumed prefix).
type lbaPend struct {
	head, tail uint64
	pages      []taggedPage
	pagesHead  int
}

// Device is one simulated NVMe SSD.
type Device struct {
	env     *sim.Env
	profile Profile
	flash   *nand.Flash
	ftl     *ftl.FTL

	fw   *sim.Resource // firmware cores
	pcie *sim.Resource // host link (serialized transfers)

	// Write buffer state. Writes to an LBA already waiting in the
	// buffer coalesce in place; drains of the same LBA are serialized
	// in pop order by per-LBA tickets, so NAND always ends with the
	// newest copy; reads see the newest not-yet-persisted copy.
	buf          []bufEntry
	bufHead      int         // drain cursor into buf (popped entries)
	bufSpace     *sim.Signal // fired when space frees up
	bufWork      *sim.Signal // fired (one waiter) per entry buffered
	inflight     int         // entries popped by drainers, not yet on NAND
	inflightDone *sim.Signal // fired when an LBA's oldest copy persists
	bufDrain     *sim.Signal // fired when buffer+inflight reaches empty
	// Per-LBA pop bookkeeping: tickets force program order; pages keeps
	// every popped-but-unpersisted copy visible to reads (oldest first —
	// the newest is the read-visible one). Structs and page buffers are
	// pooled: the drain path allocates nothing in steady state.
	pend      map[ftl.LBA]*lbaPend
	pendPool  []*lbaPend
	pageSpare [][]byte

	gate Gate

	// Metrics ("<profile>.*" in the obs registry, so two drives of one
	// environment keep separate series when their profiles are named
	// apart). Track names are precomputed so the disabled-tracer hot
	// path performs no string building.
	o                      *obs.Set
	inj                    *fault.Injector
	pcieTrack, bufTrack    string
	rdName, rdWGName       string
	cReadCmds, cWriteCmds  *obs.Counter
	cFlushCmds, cTimeouts  *obs.Counter
	cPagesRead, cPagesWrit *obs.Counter
	cGatedRd, cGatedWr     *obs.Counter
	hReadCmd, hWriteCmd    *histo.H
	hFlush                 *histo.H
}

// New builds a device from a profile. Panics on invalid profiles
// (construction-time misuse).
func New(env *sim.Env, p Profile) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fl := nand.New(env, p.Nand)
	d := &Device{
		env:          env,
		profile:      p,
		flash:        fl,
		ftl:          ftl.New(env, fl, p.FTL),
		fw:           env.NewResource(p.Name+".fw", p.FirmwareCores),
		pcie:         env.NewResource(p.Name+".pcie", 1),
		bufSpace:     env.NewSignal(p.Name + ".bufspace"),
		bufWork:      env.NewSignal(p.Name + ".bufwork"),
		bufDrain:     env.NewSignal(p.Name + ".bufdrain"),
		inflightDone: env.NewSignal(p.Name + ".inflightdone"),
		pend:         make(map[ftl.LBA]*lbaPend),
		o:            obs.Of(env),
		inj:          fault.Of(env),
		pcieTrack:    p.Name + ".pcie",
		bufTrack:     p.Name + ".wbuf",
		rdName:       p.Name + ".rd",
		rdWGName:     p.Name + ".read",
	}
	reg := d.o.Registry()
	d.cReadCmds = reg.Counter(p.Name + ".read_cmds")
	d.cWriteCmds = reg.Counter(p.Name + ".write_cmds")
	d.cFlushCmds = reg.Counter(p.Name + ".flush_cmds")
	d.cTimeouts = reg.Counter(p.Name + ".cmd_timeouts")
	d.cPagesRead = reg.Counter(p.Name + ".pages_read")
	d.cPagesWrit = reg.Counter(p.Name + ".pages_written")
	d.cGatedRd = reg.Counter(p.Name + ".gated_reads")
	d.cGatedWr = reg.Counter(p.Name + ".gated_writes")
	d.hReadCmd = reg.Histo(p.Name + ".read_cmd_ns")
	d.hWriteCmd = reg.Histo(p.Name + ".write_cmd_ns")
	d.hFlush = reg.Histo(p.Name + ".flush_ns")
	reg.GaugeFunc(p.Name+".buffered_pages", func() float64 { return float64(d.BufferedPages()) })
	drainName := p.Name + ".drain"
	for i := 0; i < p.DrainWorkers; i++ {
		env.GoDaemon(drainName, d.drainLoop)
	}
	return d
}

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.profile }

// FTL exposes the translation layer (for WAF accounting in benches).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Flash exposes the NAND array (for recovery-area access by core).
func (d *Device) Flash() *nand.Flash { return d.flash }

// PageSize returns the logical block (page) size in bytes.
func (d *Device) PageSize() int { return d.profile.Nand.PageSize }

// Pages returns the exported capacity in pages.
func (d *Device) Pages() uint64 { return d.ftl.ExportedPages() }

// SetGate installs an I/O gate (nil removes it).
func (d *Device) SetGate(g Gate) { d.gate = g }

// getPage returns a page-sized buffer, recycling drained write-buffer
// copies. Contents are undefined; every user overwrites the whole page.
func (d *Device) getPage() []byte {
	if n := len(d.pageSpare); n > 0 {
		pg := d.pageSpare[n-1]
		d.pageSpare[n-1] = nil
		d.pageSpare = d.pageSpare[:n-1]
		return pg
	}
	return make([]byte, d.PageSize())
}

// putPage recycles a page buffer once no reader can still alias it —
// readers copy out of buffered pages without yielding, so a page is
// recyclable as soon as its drain write returns or it is coalesced away.
func (d *Device) putPage(pg []byte) {
	d.pageSpare = append(d.pageSpare, pg)
}

func (d *Device) getPend() *lbaPend {
	if n := len(d.pendPool); n > 0 {
		pd := d.pendPool[n-1]
		d.pendPool[n-1] = nil
		d.pendPool = d.pendPool[:n-1]
		return pd
	}
	return &lbaPend{}
}

func (d *Device) putPend(pd *lbaPend) {
	pd.head, pd.tail = 0, 0
	pd.pages = pd.pages[:0]
	pd.pagesHead = 0
	d.pendPool = append(d.pendPool, pd)
}

func (d *Device) pcieTime(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 1000 / int64(d.profile.PCIeMBps))
}

// pcieXfer moves bytes over the shared host link: acquire, hold for the
// transfer time (under a span on the link's own track), release.
func (d *Device) pcieXfer(p *sim.Proc, bytes int) {
	dur := d.pcieTime(bytes)
	d.pcie.Acquire(p)
	sp := d.o.Tracer().Begin(d.pcieTrack, "device", "pcie_xfer")
	p.Sleep(dur)
	sp.End()
	d.pcie.Release()
}

// maybeTimeout models injected transient command timeouts: the host
// driver's timer expires n times, each retry backing off exponentially
// from the injector's base delay before the command goes through. With
// no injector installed this is a nil-receiver no-op costing nothing.
func (d *Device) maybeTimeout(p *sim.Proc) {
	n, delay := d.inj.Timeouts()
	for k := 0; k < n; k++ {
		d.cTimeouts.Inc()
		d.o.Tracer().Instant(d.profile.Name+".timeout", "device", "cmd_timeout")
		p.Sleep(delay << uint(k))
	}
}

// ReadPages executes one read command of n pages starting at lba and
// returns the data. Pages are fetched from NAND in parallel (one
// firmware work item per page) and transferred to the host over the
// shared PCIe link.
func (d *Device) ReadPages(p *sim.Proc, lba ftl.LBA, n int) ([]byte, error) {
	if n <= 0 {
		return nil, errors.New("device: read of zero pages")
	}
	if d.gate != nil {
		if err := d.gate.CheckRead(lba, n); err != nil {
			d.cGatedRd.Inc()
			d.o.Tracer().Instant(d.profile.Name+".gate", "device", "gated_read")
			return nil, err
		}
	}
	d.cReadCmds.Inc()
	start := d.env.Now()
	cmd := d.o.Tracer().BeginProc(p, "device", "read_cmd")
	d.maybeTimeout(p)
	ps := d.PageSize()
	p.Sleep(d.profile.SubmissionLatency)
	d.fw.Use(p, d.profile.FwPerCmdCost)

	out := make([]byte, n*ps)
	var firstErr error
	readPage := func(w *sim.Proc, i int) {
		d.fw.Use(w, d.profile.FwPerPageCost)
		l := lba + ftl.LBA(i)
		dst := out[i*ps : (i+1)*ps]
		// Serve from the write buffer if a newer copy is there.
		if data, tag, ok := d.bufLookup(l); ok {
			if err := integrity.Check(data, tag); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: buffered lba %d: %w", d.profile.Name, l, err)
				}
				return
			}
			copy(dst, data)
		} else {
			tag, tagged, err := d.ftl.ReadPageTaggedInto(w, l, dst)
			if err == nil && tagged {
				err = integrity.Check(dst, tag)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: lba %d: %w", d.profile.Name, l, err)
				}
				return
			}
		}
		d.pcieXfer(w, ps)
	}
	// Single-page commands (the QD-1 4 KB case the paper sweeps) run
	// inline: no fan-out goroutine or WaitGroup, same virtual timing.
	if n == 1 {
		readPage(p, 0)
	} else {
		wg := d.env.NewWaitGroup(d.rdWGName)
		wg.Add(n)
		rp := func(w *sim.Proc, i int) {
			defer wg.Done()
			readPage(w, i)
		}
		for i := 0; i < n; i++ {
			d.env.GoIdx(d.rdName, i, rp)
		}
		wg.Wait(p)
	}
	p.Sleep(d.profile.CompletionLatency)
	cmd.End()
	if firstErr != nil {
		return nil, firstErr
	}
	d.cPagesRead.Add(uint64(n))
	d.hReadCmd.Observe(sim.Duration(d.env.Now() - start))
	return out, nil
}

// bufLookup returns the newest not-yet-persisted copy of lba: a
// buffered entry, or the newest copy popped by a drain worker that has
// not reached NAND yet.
func (d *Device) bufLookup(lba ftl.LBA) ([]byte, uint32, bool) {
	for i := len(d.buf) - 1; i >= d.bufHead; i-- {
		if d.buf[i].lba == lba {
			return d.buf[i].data, d.buf[i].tag, true
		}
	}
	if pd := d.pend[lba]; pd != nil && pd.pagesHead < len(pd.pages) {
		last := pd.pages[len(pd.pages)-1]
		return last.data, last.tag, true
	}
	return nil, 0, false
}

// WritePages executes one write command; len(data) must be a multiple
// of the page size. The command completes once all pages sit in the
// power-loss-protected write buffer (so an acknowledged write is
// durable — matching the enterprise SSDs the paper measures).
func (d *Device) WritePages(p *sim.Proc, lba ftl.LBA, data []byte) error {
	ps := d.PageSize()
	if len(data) == 0 || len(data)%ps != 0 {
		return fmt.Errorf("%w: %d bytes", ErrUnaligned, len(data))
	}
	n := len(data) / ps
	if d.gate != nil {
		if err := d.gate.CheckWrite(lba, n); err != nil {
			d.cGatedWr.Inc()
			d.o.Tracer().Instant(d.profile.Name+".gate", "device", "gated_write")
			return err
		}
	}
	if uint64(lba)+uint64(n) > d.Pages() {
		return ftl.ErrLBAOutOfRange
	}
	d.cWriteCmds.Inc()
	start := d.env.Now()
	cmd := d.o.Tracer().BeginProc(p, "device", "write_cmd")
	d.maybeTimeout(p)
	p.Sleep(d.profile.SubmissionLatency)
	d.fw.Use(p, d.profile.FwPerCmdCost)
	for i := 0; i < n; i++ {
		// Transfer the page over PCIe, then wait for buffer space.
		d.pcieXfer(p, ps)
		for len(d.buf)-d.bufHead >= d.profile.WriteBufferPages {
			d.bufSpace.Wait(p)
		}
		page := d.getPage()
		copy(page, data[i*ps:(i+1)*ps])
		// The integrity tag is born here — the block path's host
		// boundary — and rides with the page to NAND and back.
		tag := integrity.PageCRC(page)
		l := lba + ftl.LBA(i)
		if !d.coalesce(l, page, tag) {
			d.buf = append(d.buf, bufEntry{lba: l, data: page, tag: tag})
			// One entry, one drain worker: a broadcast would resume every
			// idle worker to find the entry already popped.
			d.bufWork.FireOne()
			d.o.Tracer().Count(d.bufTrack, "buffered_pages", float64(d.BufferedPages()))
		}
	}
	// Buffer acknowledgement is command-level work: the controller
	// seals the command once its pages sit in protected buffer RAM.
	p.Sleep(d.profile.BufferAckLatency)
	p.Sleep(d.profile.CompletionLatency)
	cmd.End()
	d.cPagesWrit.Add(uint64(n))
	d.hWriteCmd.Observe(sim.Duration(d.env.Now() - start))
	return nil
}

// Flush is the NVMe FLUSH command (the block path's fsync). Both
// comparison devices have power-loss-protected write buffers, so an
// acknowledged write is already durable and FLUSH completes without
// waiting for NAND — a command round trip only. This is what anchors
// the paper's "commit overhead reduced up to 26x" ratio (a ~20 µs
// write+fsync versus a ~1 µs BA commit), not a full cache drain.
func (d *Device) Flush(p *sim.Proc) error {
	d.cFlushCmds.Inc()
	start := d.env.Now()
	cmd := d.o.Tracer().BeginProc(p, "device", "flush_cmd")
	d.maybeTimeout(p)
	p.Sleep(d.profile.SubmissionLatency)
	d.fw.Use(p, d.profile.FwPerCmdCost)
	p.Sleep(d.profile.CompletionLatency)
	cmd.End()
	d.hFlush.Observe(sim.Duration(d.env.Now() - start))
	return nil
}

// Drain blocks until every buffered write has reached NAND. Internal
// consumers (BA_PIN's internal datapath, the recovery dump, benchmarks
// that meter NAND bandwidth) need data physically on flash.
func (d *Device) Drain(p *sim.Proc) error {
	for len(d.buf)-d.bufHead > 0 || d.inflight > 0 {
		d.bufDrain.Wait(p)
	}
	return nil
}

// coalesce replaces an already-buffered copy of lba in place, keeping
// one buffered entry per LBA (the real write buffer's behaviour — and
// exactly how repeated partial log-page writes are absorbed).
func (d *Device) coalesce(lba ftl.LBA, page []byte, tag uint32) bool {
	for i := d.bufHead; i < len(d.buf); i++ {
		if d.buf[i].lba == lba {
			d.putPage(d.buf[i].data) // no reader holds it across a yield
			d.buf[i].data = page
			d.buf[i].tag = tag
			return true
		}
	}
	return false
}

// drainLoop is the background firmware thread moving buffered pages to
// NAND via the FTL. Per-LBA ordering: if another worker is mid-program
// on the same LBA, wait, so the newest copy always lands last.
func (d *Device) drainLoop(p *sim.Proc) {
	for {
		for len(d.buf) == d.bufHead {
			d.bufWork.Wait(p)
		}
		ent := d.buf[d.bufHead]
		d.buf[d.bufHead] = bufEntry{}
		d.bufHead++
		if d.bufHead == len(d.buf) {
			d.buf = d.buf[:0] // reuse the backing array
			d.bufHead = 0
		} else if d.bufHead > 1024 && d.bufHead > len(d.buf)/2 {
			// Compact the consumed prefix so the array stays bounded
			// even if the buffer never fully empties.
			n := copy(d.buf, d.buf[d.bufHead:])
			for i := n; i < len(d.buf); i++ {
				d.buf[i] = bufEntry{}
			}
			d.buf = d.buf[:n]
			d.bufHead = 0
		}
		d.inflight++
		d.bufSpace.Fire()
		pd := d.pend[ent.lba]
		if pd == nil {
			pd = d.getPend()
			d.pend[ent.lba] = pd
		}
		ticket := pd.tail
		pd.tail++
		pd.pages = append(pd.pages, taggedPage{data: ent.data, tag: ent.tag})
		for pd.head != ticket {
			d.inflightDone.Wait(p)
		}
		sp := d.o.Tracer().BeginProc(p, "device", "drain_write")
		if err := d.ftl.WritePageTagged(p, ent.lba, ent.data, ent.tag); err != nil {
			// Drain failure means the device is configured too small
			// for the workload: a fatal modeling error.
			panic(fmt.Sprintf("%s: drain write failed: %v", d.profile.Name, err))
		}
		sp.End()
		pd.head++
		pd.pages[pd.pagesHead] = taggedPage{}
		d.putPage(ent.data) // NAND holds its own copy now
		d.pagesPop(pd, ent.lba)
		d.inflightDone.Fire()
		d.inflight--
		d.o.Tracer().Count(d.bufTrack, "buffered_pages", float64(d.BufferedPages()))
		if len(d.buf) == d.bufHead && d.inflight == 0 {
			d.bufDrain.Fire()
		}
	}
}

// pagesPop advances pd's consumed-pages cursor and returns the struct
// to the pool once the LBA has no in-flight copies left.
func (d *Device) pagesPop(pd *lbaPend, lba ftl.LBA) {
	pd.pagesHead++
	if pd.pagesHead == len(pd.pages) {
		pd.pages = pd.pages[:0]
		pd.pagesHead = 0
	}
	if pd.head == pd.tail {
		delete(d.pend, lba)
		d.putPend(pd)
	}
}

// BufferedPages reports how many pages currently sit in the write buffer.
func (d *Device) BufferedPages() int { return len(d.buf) - d.bufHead + d.inflight }
