// Package oracle is the model-based differential-testing subsystem for
// the 2B-SSD stack: a small in-memory reference model of the paper's
// dual-path semantics, a seeded deterministic workload generator that
// drives the real simulated stack and the model through interleaved
// byte-path / block-path / pin / flush / power-cut operations, and a
// trace minimizer that shrinks any divergence to a minimal op sequence.
//
// The model is the specification: byte-window writes stage in a finite
// write-combining pool and commit on sync, read, eviction — and are
// lost on power failure; BA_PIN loads committed NAND content and gates
// the range against block I/O; BA_FLUSH moves the committed BA-buffer
// view back to the block space; the recovery dump is all-or-nothing
// over the mapped pages (unmapped buffer pages come back zeroed).
// Any behavioural difference between the stack and this model is a bug
// in one of them, and either way worth a minimal reproducer.
package oracle

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/ftl"
	"twobssd/internal/pcie"
)

// ModelConfig is the slice of the stack configuration the reference
// model needs: geometry and the write-combining pool shape.
type ModelConfig struct {
	PageSize       int
	BufBytes       int    // BA-buffer capacity
	MaxEntries     int    // mapping-table size
	Pages          uint64 // exported block capacity in pages
	WCBurstBytes   int
	WCBufferBursts int
}

type mburst struct {
	off  int
	data []byte
}

type mdump struct {
	babuf []byte
	table []*core.Entry
}

// Model is the in-memory reference implementation of 2B-SSD semantics.
// All operations are instantaneous (the model specifies content and
// error behaviour, not timing).
type Model struct {
	cfg     ModelConfig
	powered bool
	babuf   []byte   // device-side committed view
	pending []mburst // WC-staged bursts, oldest first (volatile)
	table   []*core.Entry
	blocks  map[uint64][]byte // committed block content; absent = zeros
	dump    *mdump            // non-nil = a valid recovery image exists

	// BuggyChecker miswires the LBA-checker overlap comparison by one
	// page (an abutting range is treated as pinned). It exists for the
	// oracle's self-test: a deliberately wrong model must diverge from
	// the correct stack, be caught, and shrink to a tiny trace —
	// proving the harness would catch the mirror-image stack bug.
	BuggyChecker bool
}

// NewModel builds a powered-on model with an empty buffer and table.
func NewModel(cfg ModelConfig) *Model {
	return &Model{
		cfg:     cfg,
		powered: true,
		babuf:   make([]byte, cfg.BufBytes),
		table:   make([]*core.Entry, cfg.MaxEntries),
		blocks:  make(map[uint64][]byte),
	}
}

func (m *Model) checkWindow(off, n int) error {
	if off < 0 || n < 0 || off+n > len(m.babuf) {
		return pcie.ErrOutOfWindow
	}
	return nil
}

// MmioWrite mirrors pcie.Window.Write: stage per-burst copies, then
// evict the oldest bursts while the pool overflows.
func (m *Model) MmioWrite(off int, data []byte) error {
	if err := m.checkWindow(off, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	bs := m.cfg.WCBurstBytes
	firstLine := off / bs
	lastLine := (off + len(data) - 1) / bs
	for line := firstLine; line <= lastLine; line++ {
		lo, hi := line*bs, line*bs+bs
		if lo < off {
			lo = off
		}
		if hi > off+len(data) {
			hi = off + len(data)
		}
		seg := make([]byte, hi-lo)
		copy(seg, data[lo-off:hi-off])
		m.pending = append(m.pending, mburst{off: lo, data: seg})
	}
	for len(m.pending) > m.cfg.WCBufferBursts {
		b := m.pending[0]
		m.pending = m.pending[1:]
		copy(m.babuf[b.off:], b.data)
	}
	return nil
}

func (m *Model) drainPending() {
	for _, b := range m.pending {
		copy(m.babuf[b.off:], b.data)
	}
	m.pending = m.pending[:0]
}

// MmioRead mirrors Window.Read: a load from WC memory drains this
// CPU's staged bursts first, so it sees its own prior stores.
func (m *Model) MmioRead(off, n int) ([]byte, error) {
	if err := m.checkWindow(off, n); err != nil {
		return nil, err
	}
	m.drainPending()
	out := make([]byte, n)
	copy(out, m.babuf[off:off+n])
	return out, nil
}

// MmioSync mirrors Window.Sync (clflush + mfence + write-verify read).
func (m *Model) MmioSync(off, n int) error {
	if err := m.checkWindow(off, n); err != nil {
		return err
	}
	m.drainPending()
	return nil
}

// page returns the committed block content of one logical page.
func (m *Model) page(lba ftl.LBA) []byte {
	if d, ok := m.blocks[uint64(lba)]; ok {
		return d
	}
	return make([]byte, m.cfg.PageSize)
}

// gate mirrors the LBA checker: block I/O overlapping a pinned range is
// rejected.
func (m *Model) gate(lba ftl.LBA, pages int) error {
	for _, e := range m.table {
		if e == nil {
			continue
		}
		end := e.LBA + ftl.LBA(e.Pages)
		if m.BuggyChecker {
			end++ // off-by-one: the page abutting the pin reads as pinned
		}
		if lba < end && e.LBA < lba+ftl.LBA(pages) {
			return core.ErrPinnedRange
		}
	}
	return nil
}

// Pin mirrors BA_PIN, including its exact error-check precedence:
// power, EID range, entry in use, alignment, buffer range, LBA range,
// overlap with existing mappings. On success the committed block
// content loads into the committed BA-buffer view (staged WC bursts
// are untouched — a later drain overwrites pinned-in bytes, exactly
// like the real window).
func (m *Model) Pin(eid core.EID, off int, lba ftl.LBA, pages int) error {
	if !m.powered {
		return core.ErrPowerIsOff
	}
	if int(eid) < 0 || int(eid) >= len(m.table) {
		return core.ErrBadEID
	}
	if m.table[eid] != nil {
		return core.ErrEntryInUse
	}
	ps := m.cfg.PageSize
	if off%ps != 0 || pages <= 0 {
		return core.ErrUnaligned
	}
	if off+pages*ps > len(m.babuf) {
		return core.ErrOutOfBuffer
	}
	if uint64(lba)+uint64(pages) > m.cfg.Pages {
		return core.ErrOutOfLBA
	}
	for _, e := range m.table {
		if e == nil {
			continue
		}
		bufOverlap := off < e.Offset+e.Pages*ps && e.Offset < off+pages*ps
		lbaOverlap := lba < e.LBA+ftl.LBA(e.Pages) && e.LBA < lba+ftl.LBA(pages)
		if bufOverlap || lbaOverlap {
			return core.ErrOverlap
		}
	}
	for i := 0; i < pages; i++ {
		copy(m.babuf[off+i*ps:off+(i+1)*ps], m.page(lba+ftl.LBA(i)))
	}
	m.table[eid] = &core.Entry{ID: eid, Offset: off, LBA: lba, Pages: pages}
	return nil
}

// Flush mirrors BA_FLUSH: the committed BA-buffer view of the entry
// moves to the block space and the range unpins.
func (m *Model) Flush(eid core.EID) error {
	if !m.powered {
		return core.ErrPowerIsOff
	}
	if int(eid) < 0 || int(eid) >= len(m.table) {
		return core.ErrBadEID
	}
	e := m.table[eid]
	if e == nil {
		return core.ErrNoEntry
	}
	ps := m.cfg.PageSize
	for i := 0; i < e.Pages; i++ {
		pg := make([]byte, ps)
		copy(pg, m.babuf[e.Offset+i*ps:e.Offset+(i+1)*ps])
		m.blocks[uint64(e.LBA)+uint64(i)] = pg
	}
	m.table[eid] = nil
	return nil
}

// BlockWrite mirrors device.WritePages for whole-page writes: the LBA
// checker gates first, then the capacity check. An acknowledged write
// is durable.
func (m *Model) BlockWrite(lba ftl.LBA, data []byte) error {
	ps := m.cfg.PageSize
	pages := len(data) / ps
	if err := m.gate(lba, pages); err != nil {
		return err
	}
	if uint64(lba)+uint64(pages) > m.cfg.Pages {
		return ftl.ErrLBAOutOfRange
	}
	for i := 0; i < pages; i++ {
		pg := make([]byte, ps)
		copy(pg, data[i*ps:(i+1)*ps])
		m.blocks[uint64(lba)+uint64(i)] = pg
	}
	return nil
}

// BlockRead mirrors device.ReadPages: gate first; out-of-range pages
// surface the FTL's range error; unwritten pages read as zeros.
func (m *Model) BlockRead(lba ftl.LBA, pages int) ([]byte, error) {
	if err := m.gate(lba, pages); err != nil {
		return nil, err
	}
	if uint64(lba)+uint64(pages) > m.cfg.Pages {
		return nil, ftl.ErrLBAOutOfRange
	}
	out := make([]byte, pages*m.cfg.PageSize)
	for i := 0; i < pages; i++ {
		copy(out[i*m.cfg.PageSize:], m.page(lba+ftl.LBA(i)))
	}
	return out, nil
}

// ReadDMA mirrors BA_READ_DMA: it reads the committed view of the
// entry (staged WC bursts are NOT visible — the posted-write hazard).
func (m *Model) ReadDMA(eid core.EID, n int) ([]byte, error) {
	if !m.powered {
		return nil, core.ErrPowerIsOff
	}
	if int(eid) < 0 || int(eid) >= len(m.table) {
		return nil, core.ErrBadEID
	}
	e := m.table[eid]
	if e == nil {
		return nil, core.ErrNoEntry
	}
	if max := e.Pages * m.cfg.PageSize; n > max {
		n = max
	}
	out := make([]byte, n)
	copy(out, m.babuf[e.Offset:e.Offset+n])
	return out, nil
}

// PowerCut mirrors PowerLoss. Staged WC bursts are lost (their count
// is returned — the real DumpReport.LostWCBursts must agree). Whether
// the dump image persisted is an input: the model takes the real
// stack's all-or-nothing verdict (torn or energy-starved dumps do not
// persist) and predicts the post-recovery state from it. The image
// holds the table at the cut and only the buffer pages it maps.
// Committed block data always survives — the base device drains its
// protected write buffer before the dump.
func (m *Model) PowerCut(persisted bool) (lostBursts int) {
	lostBursts = len(m.pending)
	m.pending = m.pending[:0]
	m.powered = false
	if persisted {
		d := &mdump{babuf: make([]byte, len(m.babuf)), table: make([]*core.Entry, len(m.table))}
		copy(d.table, m.table)
		ps := m.cfg.PageSize
		for _, e := range m.Entries() {
			copy(d.babuf[e.Offset:e.Offset+e.Pages*ps], m.babuf[e.Offset:])
		}
		m.dump = d
	} else {
		m.dump = nil
	}
	return lostBursts
}

// PowerOn mirrors PowerOn: restore the dump image if one persisted (its
// unmapped pages are zero), else come up with a zeroed buffer and
// empty table.
func (m *Model) PowerOn() {
	m.powered = true
	if m.dump != nil {
		copy(m.babuf, m.dump.babuf)
		copy(m.table, m.dump.table)
		m.dump = nil
		return
	}
	for i := range m.babuf {
		m.babuf[i] = 0
	}
	for i := range m.table {
		m.table[i] = nil
	}
}

// Entries returns the live mapping entries in EID order.
func (m *Model) Entries() []core.Entry {
	var out []core.Entry
	for _, e := range m.table {
		if e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// diffBytes renders the first difference between two byte slices.
func diffBytes(want, got []byte) string {
	if len(want) != len(got) {
		return fmt.Sprintf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("byte %d: got %02x want %02x", i, got[i], want[i])
		}
	}
	return ""
}
