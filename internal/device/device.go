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

	"twobssd/internal/arena"
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

	// CompletionLatency covers the interrupt and host completion
	// handling (submissionLatency the way in).
	CompletionLatency sim.Duration

	// Firmware processing: per-command cost plus per-page cost, on a
	// pool of FirmwareCores.
	FirmwareCores int
	FwPerCmdCost  sim.Duration
	FwPerPageCost sim.Duration

	// Write buffer (power-loss protected on both comparison devices):
	// writes complete once buffered; DrainWorkers firmware threads move
	// buffered pages to NAND in the background.
	WriteBufferPages int
	BufferAckLatency sim.Duration
	DrainWorkers     int
}

// Both comparison devices sit on the same host: the same driver,
// doorbell and command-fetch cost on submission, and the same link.
const (
	submissionLatency = 3 * sim.Microsecond
	pcieMBps          = 3200 // PCIe Gen3 x4
)

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
		CompletionLatency: 1 * sim.Microsecond,
		FirmwareCores:     2,
		FwPerCmdCost:      1500 * sim.Nanosecond,
		FwPerPageCost:     3500 * sim.Nanosecond,
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
		CompletionLatency: 1200 * sim.Nanosecond,
		FirmwareCores:     8,
		FwPerCmdCost:      1 * sim.Microsecond,
		FwPerPageCost:     400 * sim.Nanosecond,
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

	errZeroRead = errors.New("device: read of zero pages")
)

// bufPage is one write-buffer copy of a page.
type bufPage struct {
	data []byte
	tag  uint32 // integrity.PageCRC(data), stamped at the host boundary
}

// lbaBuf is everything the write buffer holds for one LBA: the copy
// waiting in the buffer, if queued, and the copies drain workers popped
// that are not on NAND yet, oldest first, of which inflight[:landed]
// have landed. A copy's index in inflight is its drain ticket: it goes
// to NAND once every copy before it has.
type lbaBuf struct {
	queued   bool
	buffered bufPage
	inflight []bufPage
	landed   int
}

// Holds reports whether the copy with drain ticket t is the next to
// land: the turn a drain worker waits for on inflightDone.
func (b *lbaBuf) Holds(t int64) bool { return int64(b.landed) == t }

// bufRoom is the device seen as the condition WritePages waits for on
// bufSpace: a free ring slot.
type bufRoom Device

func (r *bufRoom) Holds(int64) bool { return r.queued < len(r.ring) }

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
	ring         []ftl.LBA   // queued LBAs in arrival order: WriteBufferPages slots
	ringHead     int         // drain cursor: the oldest queued slot
	queued       int         // LBAs waiting in the ring
	bufSpace     *sim.Signal // fired when space frees up
	bufWork      *sim.Signal // fired (one waiter) per entry buffered
	inflight     int         // entries popped by drainers, not yet on NAND
	inflightDone *sim.Signal // fired when an LBA's oldest copy persists
	bufDrain     *sim.Signal // fired when buffer+inflight reaches empty
	// The buffer's index: one record per LBA with a queued or in-flight
	// copy, so a read or a write finds its LBA with one lookup. Records
	// and page buffers are pooled: the drain path allocates nothing in
	// steady state.
	byLBA     map[ftl.LBA]*lbaBuf
	bufPool   []*lbaBuf
	pageSpare [][]byte
	reads     *sim.Fan[readCmd] // a multi-page read's page workers
	// The buffers ReadPages hands the benchmark, carved many to a heap
	// object. A stream of 4 KB reads then leaves large spans the
	// collector frees whole, not 4 KB spans that a sweep hands back one
	// at a time in no address order — between them a later multi-page
	// buffer finds no room, and the heap grows by however much garbage
	// the last collection happened to leave behind.
	readMem arena.Arena

	gate Gate

	// Metrics ("<profile>.*" in the obs registry, so two drives of one
	// environment keep separate series when their profiles are named
	// apart). Track names are precomputed so the disabled-tracer hot
	// path performs no string building.
	o                      *obs.Set
	inj                    *fault.Injector
	pcieTrack, bufTrack    string
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
		ring:         make([]ftl.LBA, p.WriteBufferPages),
		byLBA:        make(map[ftl.LBA]*lbaBuf),
		o:            obs.Of(env),
		inj:          fault.Of(env),
		pcieTrack:    p.Name + ".pcie",
		bufTrack:     p.Name + ".wbuf",
	}
	d.reads = sim.NewFan(env, p.Name+".rd", d.readPage)
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

// lbaBufFor returns lba's record, making one (from the pool) if the
// buffer holds nothing for it.
func (d *Device) lbaBufFor(lba ftl.LBA) *lbaBuf {
	if b := d.byLBA[lba]; b != nil {
		return b
	}
	var b *lbaBuf
	if n := len(d.bufPool); n > 0 {
		b = d.bufPool[n-1]
		d.bufPool[n-1] = nil
		d.bufPool = d.bufPool[:n-1]
	} else {
		b = &lbaBuf{}
	}
	d.byLBA[lba] = b
	return b
}

// release drops lba's record once it holds no copy, queued or in
// flight, and returns it to the pool.
func (d *Device) release(lba ftl.LBA, b *lbaBuf) {
	if b.queued || len(b.inflight) > 0 {
		return
	}
	delete(d.byLBA, lba)
	d.bufPool = append(d.bufPool, b)
}

func (d *Device) pcieTime(bytes int) sim.Duration {
	return sim.Duration(int64(bytes) * 1000 / pcieMBps)
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

// ReadPages reads n pages from lba into a new buffer (see ReadPagesInto)
// that no other read shares, its capacity capped at its length. Only
// benchmark/adapter.go calls it; revision A deletes it, with readMem.
func (d *Device) ReadPages(p *sim.Proc, lba ftl.LBA, n int) ([]byte, error) {
	if n <= 0 {
		return nil, errZeroRead
	}
	size := n * d.PageSize()
	out := d.readMem.Alloc(size)[:size]
	if err := d.ReadPagesInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPagesInto executes one read command over the len(dst)/PageSize
// pages starting at lba and lands them in dst, a whole number of pages.
// Pages are fetched from NAND in parallel (one firmware work item per
// page) and transferred to the host over the shared PCIe link. The
// pages land in dst while the command runs, so dst must not be shared
// with another read in flight; on an error its contents are undefined.
func (d *Device) ReadPagesInto(p *sim.Proc, lba ftl.LBA, dst []byte) error {
	ps := d.PageSize()
	if len(dst) == 0 {
		return errZeroRead
	}
	if len(dst)%ps != 0 {
		return fmt.Errorf("%w: %d bytes", ErrUnaligned, len(dst))
	}
	n := len(dst) / ps
	if d.gate != nil {
		if err := d.gate.CheckRead(lba, n); err != nil {
			d.cGatedRd.Inc()
			d.o.Tracer().Instant(d.profile.Name+".gate", "device", "gated_read")
			return err
		}
	}
	if uint64(lba)+uint64(n) > d.Pages() {
		return ftl.ErrLBAOutOfRange
	}
	d.cReadCmds.Inc()
	start := d.env.Now()
	cmd := d.o.Tracer().BeginProc(p, "device", "read_cmd")
	d.maybeTimeout(p)
	p.Sleep(submissionLatency)
	d.fw.Use(p, d.profile.FwPerCmdCost)

	var err error
	// Single-page commands (the QD-1 4 KB case the paper sweeps) run
	// inline: no fan-out process, same virtual timing.
	if n == 1 {
		err = d.readPage(p, &readCmd{lba, dst}, 0)
	} else {
		err = d.reads.Run(p, n, readCmd{lba, dst})
	}
	p.Sleep(d.profile.CompletionLatency)
	cmd.End()
	if err != nil {
		return err
	}
	d.cPagesRead.Add(uint64(n))
	d.hReadCmd.Observe(sim.Duration(d.env.Now() - start))
	return nil
}

// readCmd is one read command as its page workers see it.
type readCmd struct {
	lba ftl.LBA
	dst []byte
}

// readPage fetches page i of a read command into its slice of c.dst and
// moves it to the host: from the write buffer if a newer copy is there,
// else from NAND. A page that fails its check is not transferred.
func (d *Device) readPage(w *sim.Proc, c *readCmd, i int) error {
	ps := d.PageSize()
	l, dst := c.lba+ftl.LBA(i), c.dst[i*ps:(i+1)*ps]
	d.fw.Use(w, d.profile.FwPerPageCost)
	if data, tag, ok := d.bufLookup(l); ok {
		if err := integrity.Check(data, tag); err != nil {
			return fmt.Errorf("%s: buffered lba %d: %w", d.profile.Name, l, err)
		}
		copy(dst, data)
	} else if err := d.ftl.ReadPageInto(w, l, dst); err != nil {
		return fmt.Errorf("%s: lba %d: %w", d.profile.Name, l, err)
	}
	d.pcieXfer(w, len(dst))
	return nil
}

// bufLookup returns the newest not-yet-persisted copy of lba: the
// queued one, or the newest copy popped by a drain worker that has not
// reached NAND yet.
func (d *Device) bufLookup(lba ftl.LBA) ([]byte, uint32, bool) {
	b := d.byLBA[lba]
	switch {
	case b == nil:
		return nil, 0, false
	case b.queued:
		return b.buffered.data, b.buffered.tag, true
	case b.landed < len(b.inflight):
		last := b.inflight[len(b.inflight)-1]
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
	p.Sleep(submissionLatency)
	d.fw.Use(p, d.profile.FwPerCmdCost)
	for i := 0; i < n; i++ {
		// Transfer the page over PCIe, then wait for buffer space.
		d.pcieXfer(p, ps)
		d.bufSpace.WaitUntil(p, (*bufRoom)(d), 0)
		page := d.getPage()
		copy(page, data[i*ps:(i+1)*ps])
		// The integrity tag is born here — the block path's host
		// boundary — and rides with the page to NAND and back.
		tag := integrity.PageCRC(page)
		if d.enqueue(lba+ftl.LBA(i), bufPage{data: page, tag: tag}) {
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
	p.Sleep(submissionLatency)
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
	for d.queued > 0 || d.inflight > 0 {
		d.bufDrain.Wait(p)
	}
	return nil
}

// enqueue buffers pg as lba's newest copy. A copy of lba already
// waiting in the buffer is replaced in place, keeping one queued entry
// per LBA (the real write buffer's behaviour — and exactly how repeated
// partial log-page writes are absorbed); otherwise lba takes the ring's
// next slot and enqueue reports true. The caller has made room.
func (d *Device) enqueue(lba ftl.LBA, pg bufPage) bool {
	b := d.lbaBufFor(lba)
	if b.queued {
		d.putPage(b.buffered.data) // no reader holds it across a yield
		b.buffered = pg
		return false
	}
	b.queued, b.buffered = true, pg
	d.ring[(d.ringHead+d.queued)%len(d.ring)] = lba
	d.queued++
	return true
}

// drainLoop is the background firmware thread moving buffered pages to
// NAND via the FTL. Per-LBA ordering: if another worker is mid-program
// on the same LBA, wait, so the newest copy always lands last.
func (d *Device) drainLoop(p *sim.Proc) {
	for {
		for d.queued == 0 {
			d.bufWork.Wait(p)
		}
		lba := d.ring[d.ringHead]
		d.ringHead = (d.ringHead + 1) % len(d.ring)
		d.queued--
		b := d.byLBA[lba]
		ent := b.buffered
		b.queued, b.buffered = false, bufPage{}
		d.inflight++
		d.bufSpace.Fire()
		ticket := len(b.inflight)
		b.inflight = append(b.inflight, ent)
		d.inflightDone.WaitUntil(p, b, int64(ticket))
		sp := d.o.Tracer().BeginProc(p, "device", "drain_write")
		if err := d.ftl.WritePageTagged(p, lba, ent.data, ent.tag); err != nil {
			// Drain failure means the device is configured too small
			// for the workload: a fatal modeling error.
			panic(fmt.Sprintf("%s: drain write failed: %v", d.profile.Name, err))
		}
		sp.End()
		b.inflight[ticket] = bufPage{}
		d.putPage(ent.data) // NAND holds its own copy now
		if b.landed++; b.landed == len(b.inflight) {
			// Nothing waits on a ticket: the tickets start over.
			b.inflight, b.landed = b.inflight[:0], 0
		}
		d.release(lba, b)
		d.inflightDone.Fire()
		d.inflight--
		d.o.Tracer().Count(d.bufTrack, "buffered_pages", float64(d.BufferedPages()))
		if d.queued == 0 && d.inflight == 0 {
			d.bufDrain.Fire()
		}
	}
}

// BufferedPages reports how many pages currently sit in the write buffer.
func (d *Device) BufferedPages() int { return d.queued + d.inflight }
