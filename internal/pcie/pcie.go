// Package pcie models the host-CPU side of memory-mapped I/O to a PCIe
// device BAR: write-combining (WC) stores, non-posted split reads, and
// the two-step durability protocol of the paper (Section III-B):
//
//  1. clflush + mfence drain the CPU's WC buffers toward the root
//     complex, and
//  2. a "write-verify read" (zero-byte non-posted read) forces all
//     prior posted writes to commit at the device.
//
// The model is falsifiable: bytes written but not yet synced sit in a
// volatile staging area and are LOST when DropPending is called (power
// failure), except for bursts that were already evicted to the device
// because the finite WC buffer overflowed — exactly the x86 behaviour
// that makes the paper's flush protocol necessary.
package pcie

import (
	"errors"
	"fmt"

	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// Config sets the write-combining geometry, the one part of the MMIO
// model an experiment varies (the write-combining ablation).
type Config struct {
	WCBurstBytes   int // burst granule (64 B on x86)
	WCBufferBursts int // WC buffers before forced eviction (~10 on x86)
}

// DefaultConfig returns the x86 write-combining geometry.
func DefaultConfig() Config {
	return Config{WCBurstBytes: 64, WCBufferBursts: 10}
}

// The MMIO latencies, tuned to the paper's measured Fig 7 curves:
// 8 B write 630 ns, 4 KB write ≈ 2 µs, 4 KB read ≈ 150 µs, sync
// overhead ≈ +15 % at 8 B and ≈ +47 % at 4 KB.
const (
	// Writes: posted transactions, combined into WC bursts.
	writeBase     = 630 * sim.Nanosecond // first burst of a store sequence
	writePerBurst = 21 * sim.Nanosecond  // each additional burst
	// Reads: non-posted, split into small transactions for atomicity.
	readTxBytes = 8                     // split size (8 B on x86)
	readBase    = 1900 * sim.Nanosecond // fixed per-request overhead
	readPerTx   = 289 * sim.Nanosecond  // per split transaction round trip
	// Sync: clflush+mfence per dirty line plus write-verify read.
	syncBase    = 82 * sim.Nanosecond // mfence + zero-byte write-verify read
	syncPerLine = 13 * sim.Nanosecond // clflush per 64 B line in the range
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.WCBurstBytes <= 0:
		return errors.New("pcie: WCBurstBytes must be > 0")
	case c.WCBufferBursts <= 0:
		return errors.New("pcie: WCBufferBursts must be > 0")
	}
	return nil
}

// ErrOutOfWindow reports an access beyond the mapped BAR range.
var ErrOutOfWindow = errors.New("pcie: access outside MMIO window")

// Memory is the device memory behind a window: Len bytes, which the
// window reads and writes at byte offsets it has checked. For the
// 2B-SSD it is the BA-buffer DRAM, which the recovery manager treats
// as durable, carved a page at a time as it is first written.
type Memory interface {
	Len() int
	ReadAt(dst []byte, off int)
	WriteAt(src []byte, off int)
}

// flat is device memory that is one byte slice.
type flat []byte

func (m flat) Len() int                    { return len(m) }
func (m flat) ReadAt(dst []byte, off int)  { copy(dst, m[off:]) }
func (m flat) WriteAt(src []byte, off int) { copy(m[off:], src) }

// Window is one mapped BAR region backed by device memory. `mem` is
// the device-side (committed) view.
type Window struct {
	env *sim.Env
	cfg Config
	mem Memory

	// pending holds WC bursts not yet committed to the device, in
	// arrival order (oldest first). Lost on power failure. The head
	// advances by cursor and retired burst buffers are recycled through
	// spare, so steady-state staging does not allocate.
	pending  []burst
	pendHead int
	spare    [][]byte

	// Metrics ("pcie.*" in the obs registry).
	o                       *obs.Set
	inj                     *fault.Injector
	cWrites, cReads, cSyncs *obs.Counter
	cBytesWrit, cBytesRead  *obs.Counter
	cEvictions, cWVReads    *obs.Counter
	hWrite, hRead, hSync    *histo.H
}

type burst struct {
	off  int
	data []byte
}

// NewWindow maps cfg over device memory that is one byte slice (see
// NewWindowOn).
func NewWindow(env *sim.Env, cfg Config, mem []byte) *Window {
	return NewWindowOn(env, cfg, flat(mem))
}

// NewWindowOn maps cfg over the given device memory. Panics on invalid
// configuration (construction-time misuse).
func NewWindowOn(env *sim.Env, cfg Config, mem Memory) *Window {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := &Window{env: env, cfg: cfg, mem: mem, o: obs.Of(env), inj: fault.Of(env)}
	reg := w.o.Registry()
	w.cWrites = reg.Counter("pcie.mmio_writes")
	w.cReads = reg.Counter("pcie.mmio_reads")
	w.cSyncs = reg.Counter("pcie.syncs")
	w.cBytesWrit = reg.Counter("pcie.bytes_written")
	w.cBytesRead = reg.Counter("pcie.bytes_read")
	w.cEvictions = reg.Counter("pcie.wc_evictions")
	w.cWVReads = reg.Counter("pcie.write_verify_reads")
	w.hWrite = reg.Histo("pcie.mmio_write_ns")
	w.hRead = reg.Histo("pcie.mmio_read_ns")
	w.hSync = reg.Histo("pcie.sync_ns")
	reg.GaugeFunc("pcie.pending_bursts", func() float64 { return float64(w.PendingBursts()) })
	return w
}

func (w *Window) check(off, n int) error {
	if off < 0 || n < 0 || off+n > w.mem.Len() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfWindow, off, off+n, w.mem.Len())
	}
	return nil
}

// Write performs an MMIO store sequence (memcpy onto the BAR): a posted
// transaction per WC burst. The data lands in the volatile WC staging
// until a Sync — except bursts force-evicted when the WC buffer pool
// overflows, which commit immediately (and are then power-safe).
func (w *Window) Write(p *sim.Proc, off int, data []byte) error {
	if err := w.check(off, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	bs := w.cfg.WCBurstBytes
	firstLine := off / bs
	lastLine := (off + len(data) - 1) / bs
	bursts := lastLine - firstLine + 1
	d := writeBase + sim.Duration(bursts-1)*writePerBurst
	sp := w.o.Tracer().Begin("pcie.mmio", "pcie", "mmio_write")
	p.Sleep(d)
	sp.End()
	w.hWrite.Observe(d)

	// Stage per-burst copies.
	for line := firstLine; line <= lastLine; line++ {
		lo := line * bs
		hi := lo + bs
		if lo < off {
			lo = off
		}
		if hi > off+len(data) {
			hi = off + len(data)
		}
		seg := w.getSeg(hi - lo)
		copy(seg, data[lo-off:hi-off])
		w.pending = append(w.pending, burst{off: lo, data: seg})
		w.inj.Tick(fault.EvWCBurst)
	}
	// Finite WC buffer pool: oldest bursts evict to the device.
	for w.PendingBursts() > w.cfg.WCBufferBursts {
		b := w.popPending()
		w.commitBurst(b)
		w.putSeg(b.data)
		w.cEvictions.Inc()
	}
	w.cWrites.Inc()
	w.cBytesWrit.Add(uint64(len(data)))
	return nil
}

func (w *Window) commitBurst(b burst) {
	w.mem.WriteAt(b.data, b.off)
}

// getSeg returns a burst buffer of length n (≤ one WC burst), reusing a
// retired one when available.
func (w *Window) getSeg(n int) []byte {
	if k := len(w.spare); k > 0 {
		s := w.spare[k-1]
		w.spare[k-1] = nil
		w.spare = w.spare[:k-1]
		return s[:n]
	}
	return make([]byte, n, w.cfg.WCBurstBytes)
}

func (w *Window) putSeg(s []byte) { w.spare = append(w.spare, s) }

// popPending removes the oldest staged burst (caller checked there is
// one). The head moves by cursor so the backing array is recycled, not
// re-sliced away.
func (w *Window) popPending() burst {
	b := w.pending[w.pendHead]
	w.pending[w.pendHead] = burst{}
	w.pendHead++
	if w.pendHead == len(w.pending) {
		w.pending = w.pending[:0]
		w.pendHead = 0
	}
	return b
}

// Read performs an MMIO load of len(buf) bytes at off. Reads from WC
// memory are non-posted and split into ReadTxBytes transactions; on
// x86 a load from a WC region also drains the WC buffers first, so the
// read always observes this CPU's own prior stores.
func (w *Window) Read(p *sim.Proc, off int, buf []byte) error {
	if err := w.check(off, len(buf)); err != nil {
		return err
	}
	w.drainPending()
	tx := (len(buf) + readTxBytes - 1) / readTxBytes
	d := readBase + sim.Duration(tx)*readPerTx
	sp := w.o.Tracer().Begin("pcie.mmio", "pcie", "mmio_read")
	p.Sleep(d)
	sp.End()
	w.hRead.Observe(d)
	w.mem.ReadAt(buf, off)
	w.cReads.Inc()
	w.cBytesRead.Add(uint64(len(buf)))
	return nil
}

func (w *Window) drainPending() {
	for w.PendingBursts() > 0 {
		b := w.popPending()
		w.commitBurst(b)
		w.putSeg(b.data)
	}
}

// Sync executes the durability protocol for [off, off+n): clflush per
// 64 B line followed by mfence, then a zero-byte write-verify read.
// Afterwards every prior store to the window is committed on the
// device (clflush drains whole WC buffers, not just the range, and the
// verify read orders everything at the root complex).
func (w *Window) Sync(p *sim.Proc, off, n int) error {
	if err := w.check(off, n); err != nil {
		return err
	}
	bs := w.cfg.WCBurstBytes
	lines := 0
	if n > 0 {
		lines = (off+n-1)/bs - off/bs + 1
	}
	d := syncBase + sim.Duration(lines)*syncPerLine
	sp := w.o.Tracer().Begin("pcie.mmio", "pcie", "sync")
	p.Sleep(d)
	sp.End()
	w.hSync.Observe(d)
	w.drainPending()
	w.cWVReads.Inc()
	w.cSyncs.Inc()
	return nil
}

// DropPending models a power failure on the host side: WC-staged bytes
// that were never synced or evicted vanish. Returns the number of
// bursts lost.
func (w *Window) DropPending() int {
	n := w.PendingBursts()
	for w.PendingBursts() > 0 {
		w.putSeg(w.popPending().data)
	}
	return n
}

// PendingBursts reports how many WC bursts are staged (volatile).
func (w *Window) PendingBursts() int { return len(w.pending) - w.pendHead }
