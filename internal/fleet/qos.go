// Per-device QoS for the contended 8-entry BA-buffer mapping table.
//
// Every byte-path log on a device needs pinned BA-buffer windows while
// it commits. It double-buffers, as the paper's BA-WAL does (Section
// IV-B): a pair of mapping-table entries takes turns, one page each, so
// the page the log left flushes in the background while the next takes
// stores. A device hosts more log streams than entry pairs once tenants
// multiply, so the slotManager arbitrates: each pair (plus its two
// buffer pages) is a *slot* leased to one stream at a time. Acquisition
// is least-attained-service first — the stream that has held slots for
// the least total virtual time wins the next free slot. Two rules take
// a slot back while others wait: no idle holder keeps one (a waiter
// evicts an idle holder, flushing on its behalf, and a busy holder
// yields when its last queued operation ends), and a busy holder yields
// once it has run burstOps operations. Per-stream wait/hold/eviction
// metrics and a Jain fairness index land in the device's obs registry,
// so they ride the sampler timelines like every other metric.
package fleet

import (
	"fmt"
	"slices"

	"twobssd/internal/core"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// QoSConfig tunes the mapping-table arbitration.
type QoSConfig struct {
	// Slots is how many mapping-table entry pairs the manager hands
	// out (<= half the device's MaxEntries; 0 means all of them). Fewer
	// slots than log streams is what creates contention.
	Slots int

	// BurstOps is how many appends a holder with more queued behind
	// them may run before it must yield its slot when others are
	// waiting (0 = 8). A holder with none queued yields at once.
	BurstOps int

	// MaxInflight is the per-tenant admission limit: ops beyond this
	// many unacknowledged ones are rejected (the client retries with
	// backoff per its traffic.Spec — or drops). 0 = 16.
	MaxInflight int
}

func (c QoSConfig) burstOps() int {
	if c.BurstOps <= 0 {
		return 8
	}
	return c.BurstOps
}

func (c QoSConfig) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 16
	}
	return c.MaxInflight
}

// slot is one leasable pair of mapping-table entries and the two
// BA-buffer pages, from bufOff, that its log's halves pin.
type slot struct {
	eids   [2]core.EID
	bufOff int
	holder *logHandle // nil when free
}

// slotManager arbitrates one device's slots among its log streams.
type slotManager struct {
	env      *sim.Env
	cfg      QoSConfig
	segBytes int
	slots    []slot
	waiters  []*logHandle // arrival order; selection is least-attained
	seq      uint64

	gFairness *obs.Gauge
	cLeases   *obs.Counter
	cEvict    *obs.Counter

	streams []*logHandle // every stream ever seen, for fairness
}

func newSlotManager(env *sim.Env, cfg QoSConfig, maxEntries, segBytes int) *slotManager {
	n := cfg.Slots
	if n <= 0 || n > maxEntries/2 {
		n = maxEntries / 2
	}
	m := &slotManager{env: env, cfg: cfg, segBytes: segBytes}
	for i := 0; i < n; i++ {
		m.slots = append(m.slots, slot{
			eids:   [2]core.EID{core.EID(2 * i), core.EID(2*i + 1)},
			bufOff: 2 * i * segBytes,
		})
	}
	reg := obs.Of(env).Registry()
	m.gFairness = reg.Gauge("fleet.qos.fairness")
	m.cLeases = reg.Counter("fleet.qos.leases")
	m.cEvict = reg.Counter("fleet.qos.evictions")
	return m
}

// contended reports whether any stream is queued for a slot.
func (m *slotManager) contended() bool { return len(m.waiters) > 0 }

// fairness is the Jain index over per-stream attained slot time:
// (Σx)² / (n·Σx²) — 1.0 is perfectly fair, 1/n is one stream hogging.
func (m *slotManager) fairness() float64 {
	var sum, sq float64
	n := 0
	for _, h := range m.streams {
		x := float64(h.attained)
		if h.leases == 0 {
			continue
		}
		sum += x
		sq += x * x
		n++
	}
	if n == 0 || sq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sq)
}

// acquire leases a slot for h: a free one, else an idle holder's,
// which it evicts, else it waits until a holder hands one over. The
// wait order is least-attained-service first (ties by arrival). The
// error is the evicted holder's flush's; the slot is h's all the same.
func (m *slotManager) acquire(p *sim.Proc, h *logHandle) (int, error) {
	t0 := m.env.Now()
	if h.seq == 0 {
		m.seq++
		h.seq = m.seq
		m.streams = append(m.streams, h)
	}
	si, victim := -1, -1
	for i := range m.slots {
		if v := m.slots[i].holder; v == nil {
			si = i
			break
		} else if victim < 0 && v.busy == 0 {
			victim = i
		}
	}
	var err error
	switch {
	case si >= 0:
		m.slots[si].holder = h
	case victim >= 0:
		si, err = victim, m.evict(p, victim, h)
	default:
		m.waiters = append(m.waiters, h)
		h.granted = -1
		for h.granted < 0 {
			h.sig.Wait(p)
		}
		// release() already reserved the slot for us.
		si = h.granted
	}
	h.leases++
	h.leaseStart = m.env.Now()
	m.cLeases.Inc()
	h.hWait.Observe(sim.Duration(m.env.Now() - t0))
	return si, err
}

// evict takes slot si from its idle holder for h, flushing the
// holder's log on its behalf under the holder's lock. The lock is free
// (an idle stream neither holds nor queues on it), and the eviction
// counts as the holder's release in progress, so no other waiter picks
// the same holder while the flush runs.
func (m *slotManager) evict(p *sim.Proc, si int, h *logHandle) error {
	v := m.slots[si].holder
	v.busy++
	v.mu.Acquire(p)
	err := v.log.FlushToNAND(p)
	m.endLease(v, true)
	v.slotIdx = -1
	m.slots[si].holder = h
	v.mu.Release()
	v.busy--
	return err
}

// release returns slot si held by h, passing it to the queued stream
// with the least attained service if any.
func (m *slotManager) release(si int, h *logHandle, evicted bool) {
	m.endLease(h, evicted)
	if len(m.waiters) > 0 {
		best := 0
		for i := 1; i < len(m.waiters); i++ {
			w, b := m.waiters[i], m.waiters[best]
			if w.attained < b.attained || (w.attained == b.attained && w.seq < b.seq) {
				best = i
			}
		}
		next := m.waiters[best]
		m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
		next.granted = si
		m.slots[si].holder = next // reserved: nobody else may take it
		next.sig.Fire()
	} else {
		m.slots[si].holder = nil
	}
}

// endLease books the end of h's lease.
func (m *slotManager) endLease(h *logHandle, evicted bool) {
	h.attained += sim.Duration(m.env.Now() - h.leaseStart)
	h.cHold.Add(uint64(m.env.Now() - h.leaseStart))
	if evicted {
		m.cEvict.Inc()
		h.cEvict.Inc()
	}
	m.gFairness.Set(m.fairness())
}

// audit checks the manager's lease table (fleetRT.Audit): each held
// slot's holder is one of this device's streams and its lease names
// the slot, which also means no stream holds two; each stream's lease
// names a slot it holds; no waiting stream holds one; and each
// stream's log is bound to the entry pair and buffer pages of a slot of
// this device, a holder's to those of the slot it holds.
func (m *slotManager) audit() error {
	for si, s := range m.slots {
		switch h := s.holder; {
		case h == nil:
		case h.mgr != m:
			return fmt.Errorf("slot %d is held by %s, a stream of another device", si, h.stream)
		case h.slotIdx != si:
			return fmt.Errorf("slot %d is held by %s, whose lease names slot %d", si, h.stream, h.slotIdx)
		}
	}
	for _, h := range m.streams {
		if h.slotIdx >= 0 && (h.slotIdx >= len(m.slots) || m.slots[h.slotIdx].holder != h) {
			return fmt.Errorf("%s's lease names slot %d, which it does not hold", h.stream, h.slotIdx)
		}
	}
	for _, h := range m.waiters {
		if h.slotIdx >= 0 {
			return fmt.Errorf("%s waits for a slot while it holds slot %d", h.stream, h.slotIdx)
		}
	}
	for _, h := range m.streams {
		eids, off := h.log.Binding()
		bound := -1
		for si, s := range m.slots {
			if off == s.bufOff && slices.Equal(eids, s.eids[:]) {
				bound = si
				break
			}
		}
		switch si := h.slotIdx; {
		case si >= 0 && bound != si:
			s := m.slots[si]
			return fmt.Errorf("slot %d (entries %v, buffer offset %d) is held by %s, whose log is bound to entries %v at buffer offset %d",
				si, s.eids, s.bufOff, h.stream, eids, off)
		case bound < 0:
			return fmt.Errorf("%s's log is bound to entries %v at buffer offset %d, no slot of this device", h.stream, eids, off)
		}
	}
	return nil
}

// logHandle is one log stream under slot management: a BA-mode WAL on
// a ring of segment files that double-buffers one-page halves over
// whatever entry pair the stream currently leases. Between leases the
// log is flushed to NAND (so it owns no mapping-table entry) and Rebind
// moves it onto the next leased slot; append offsets carry across
// leases.
type logHandle struct {
	mgr    *slotManager
	stream string
	ssd    *core.TwoBSSD
	mu     *sim.Resource
	sig    *sim.Signal

	log     *wal.Log
	slotIdx int // leased slot, -1 between leases

	// busy counts the stream's appends, releases and recoveries that
	// have begun and not ended, running or queued on mu (and an
	// eviction run on its behalf): the stream is idle at 0.
	busy int

	// Arbitration state owned by the manager.
	seq        uint64
	granted    int
	leases     uint64
	attained   sim.Duration
	leaseStart sim.Time
	opsInLease int

	hWait  *histo.H
	cHold  *obs.Counter
	cEvict *obs.Counter
}

// newLogHandle opens the stream's log: Ring files of logBytes/4 each
// (so total ring capacity matches the configured log size), in
// segments of the slot's one-page halves.
func newLogHandle(mgr *slotManager, ssd *core.TwoBSSD, fs *vfs.FS, name, stream string, logBytes int64) (*logHandle, error) {
	segFile := logBytes / 4 / int64(mgr.segBytes) * int64(mgr.segBytes)
	if segFile < int64(mgr.segBytes) {
		segFile = int64(mgr.segBytes)
	}
	l, err := wal.Open(mgr.env, wal.Config{
		Mode:             wal.BA,
		FS:               fs,
		Name:             name,
		SegmentFileBytes: segFile,
		Ring:             4,
		SegmentBytes:     mgr.segBytes,
		SSD:              ssd,
		EIDs:             []core.EID{0, 1}, // placeholder; Rebind sets the leased pair
	})
	if err != nil {
		return nil, err
	}
	reg := obs.Of(mgr.env).Registry()
	return &logHandle{
		mgr: mgr, stream: stream, ssd: ssd, log: l,
		mu:      mgr.env.NewResource(fmt.Sprintf("fleet.%s.mu", stream), 1),
		sig:     mgr.env.NewSignal(fmt.Sprintf("fleet.%s.slot", stream)),
		slotIdx: -1,
		hWait:   reg.Histo(fmt.Sprintf("fleet.qos.%s.wait_ns", stream)),
		cHold:   reg.Counter(fmt.Sprintf("fleet.qos.%s.hold_ns", stream)),
		cEvict:  reg.Counter(fmt.Sprintf("fleet.qos.%s.evictions", stream)),
	}, nil
}

// begin starts one of the stream's operations: it counts the stream
// busy, then takes its lock.
func (h *logHandle) begin(p *sim.Proc) {
	h.busy++
	h.mu.Acquire(p)
}

// end finishes the operation begin started and returns its error. A
// holder whose last operation this is yields its slot if a stream
// waits: no idle holder keeps a slot while any stream waits.
func (h *logHandle) end(p *sim.Proc, err error) error {
	if h.busy == 1 && h.slotIdx >= 0 && h.mgr.contended() {
		if rerr := h.releaseLocked(p, true); err == nil {
			err = rerr
		}
	}
	h.mu.Release()
	h.busy--
	return err
}

// ensure leases a slot and rebinds the log onto its entry pair. Callers
// hold h.mu.
func (h *logHandle) ensure(p *sim.Proc) error {
	if h.slotIdx >= 0 {
		return nil
	}
	si, err := h.mgr.acquire(p, h)
	if err == nil {
		s := &h.mgr.slots[si]
		err = h.log.Rebind(s.eids[:], s.bufOff)
	}
	if err != nil {
		h.mgr.release(si, h, false)
		return err
	}
	h.slotIdx = si
	h.opsInLease = 0
	return nil
}

// append commits one record through the leased slot.
func (h *logHandle) append(p *sim.Proc, payload []byte) error {
	h.begin(p)
	return h.end(p, h.appendLocked(p, payload))
}

// appendLocked is append under h.mu. A holder with more appends queued
// behind this one yields the slot once the device is contended and the
// burst quota is spent (the eviction policy).
func (h *logHandle) appendLocked(p *sim.Proc, payload []byte) error {
	if err := h.ensure(p); err != nil {
		return err
	}
	lsn, err := h.log.Append(p, payload)
	if err != nil {
		return err
	}
	if err := h.log.Commit(p, lsn); err != nil {
		return err
	}
	h.opsInLease++
	if h.mgr.contended() && h.opsInLease >= h.mgr.cfg.burstOps() {
		return h.releaseLocked(p, true)
	}
	return nil
}

// releaseLocked flushes the log's pinned pages to NAND and returns the
// slot. Callers hold h.mu. Flush errors (e.g. power loss mid-release)
// still free the slot so waiters never hang on a dead holder.
func (h *logHandle) releaseLocked(p *sim.Proc, evicted bool) error {
	if h.slotIdx < 0 {
		return nil
	}
	err := h.log.FlushToNAND(p)
	h.mgr.release(h.slotIdx, h, evicted)
	h.slotIdx = -1
	return err
}

// release is releaseLocked for external callers.
func (h *logHandle) release(p *sim.Proc) error {
	h.begin(p)
	return h.end(p, h.releaseLocked(p, false))
}

// recover replays the segment chain from media into fn — the
// end-to-end integrity read used by the failover verifier and the
// end-of-run oracle check. The log keeps whatever lease it holds:
// Recover flushes the pinned halves under its scan, so nothing is
// released or re-leased first. It stays positioned after the last
// durable record, ready for more appends, unless a stream waits for its
// slot.
func (h *logHandle) recover(p *sim.Proc, fn func(lsn wal.LSN, payload []byte) error) error {
	h.begin(p)
	return h.end(p, h.log.Recover(p, fn))
}
