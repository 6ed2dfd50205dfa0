// Per-device QoS for the contended 8-entry BA-buffer mapping table.
//
// Every byte-path log on a device needs a pinned BA-buffer window (one
// mapping-table entry) while it commits. A device hosts more log
// streams than table entries once tenants multiply, so the slotManager
// arbitrates: each entry (plus its buffer window) is a *slot* leased to
// one stream at a time. Acquisition is least-attained-service first —
// the stream that has held slots for the least total virtual time wins
// the next free slot — and a holder is evicted (forced to flush its
// window to NAND and release) once it has run burstOps operations
// while others wait. Per-stream wait/hold/eviction metrics and a Jain
// fairness index land in the device's obs registry, so they ride the
// sampler timelines like every other metric.
package fleet

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// QoSConfig tunes the mapping-table arbitration.
type QoSConfig struct {
	// Slots is how many mapping-table entries the manager hands out
	// (<= the device's MaxEntries; 0 means all of them). Fewer slots
	// than log streams is what creates contention.
	Slots int

	// BurstOps is how many appends a holder may run before it must
	// yield its slot when others are waiting (0 = 8).
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

// slot is one leasable mapping-table entry + BA-buffer window.
type slot struct {
	eid    core.EID
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
	if n <= 0 || n > maxEntries {
		n = maxEntries
	}
	m := &slotManager{env: env, cfg: cfg, segBytes: segBytes}
	for i := 0; i < n; i++ {
		m.slots = append(m.slots, slot{eid: core.EID(i), bufOff: i * segBytes})
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

// acquire leases a slot for h, blocking until one frees up. The wait
// order is least-attained-service first (ties by arrival).
func (m *slotManager) acquire(p *sim.Proc, h *logHandle) int {
	t0 := m.env.Now()
	if h.seq == 0 {
		m.seq++
		h.seq = m.seq
		m.streams = append(m.streams, h)
	}
	si := -1
	for i := range m.slots {
		if m.slots[i].holder == nil {
			si = i
			break
		}
	}
	if si >= 0 {
		m.slots[si].holder = h
	} else {
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
	return si
}

// release returns slot si held by h, passing it to the queued stream
// with the least attained service if any.
func (m *slotManager) release(si int, h *logHandle, evicted bool) {
	h.attained += sim.Duration(m.env.Now() - h.leaseStart)
	h.cHold.Add(uint64(m.env.Now() - h.leaseStart))
	if evicted {
		m.cEvict.Inc()
		h.cEvict.Inc()
	}
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
	m.gFairness.Set(m.fairness())
}

// audit checks the manager's lease table (fleetRT.Audit): each held
// slot's holder is one of this device's streams and its lease names
// the slot, which also means no stream holds two; each stream's lease
// names a slot it holds; and no waiting stream holds one.
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
	return nil
}

// logHandle is one log stream under slot management: a BA-mode WAL on
// a ring of segment files whose pinned window (EID + buffer offset) is
// whatever slot the stream currently leases. Between leases the log is
// flushed to NAND (so it owns no mapping-table entry) and Rebind moves
// it onto the next leased slot; append offsets carry across leases.
type logHandle struct {
	mgr    *slotManager
	stream string
	ssd    *core.TwoBSSD
	mu     *sim.Resource
	sig    *sim.Signal

	log     *wal.Log
	slotIdx int // leased slot, -1 between leases

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

// newLogHandle opens the stream's log: Ring files of
// logBytes/4 each (so total ring capacity matches the configured log
// size), with the slot window size as the inner BA pin unit.
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
		EIDs:             []core.EID{0}, // placeholder; Rebind sets the leased entry
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

// ensure leases a slot and rebinds the log onto it. Callers hold h.mu.
func (h *logHandle) ensure(p *sim.Proc) error {
	if h.slotIdx >= 0 {
		return nil
	}
	si := h.mgr.acquire(p, h)
	if err := h.log.Rebind([]core.EID{h.mgr.slots[si].eid}, h.mgr.slots[si].bufOff); err != nil {
		h.mgr.release(si, h, false)
		return err
	}
	h.slotIdx = si
	h.opsInLease = 0
	return nil
}

// append commits one record through the leased window, yielding the
// slot afterwards if the device is contended and the burst quota is
// spent (the eviction policy).
func (h *logHandle) append(p *sim.Proc, payload []byte) error {
	h.mu.Acquire(p)
	defer h.mu.Release()
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

// releaseLocked flushes the window to NAND and returns the slot.
// Callers hold h.mu. Flush errors (e.g. power loss mid-release) still
// free the slot so waiters never hang on a dead holder.
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
	h.mu.Acquire(p)
	defer h.mu.Release()
	return h.releaseLocked(p, false)
}

// recover flushes everything to NAND and replays the segment chain
// from media into fn — the end-to-end integrity read used by the
// failover verifier and the end-of-run oracle check. The log stays
// leased and positioned after the last durable record, ready for more
// appends.
func (h *logHandle) recover(p *sim.Proc, fn func(lsn wal.LSN, payload []byte) error) error {
	h.mu.Acquire(p)
	defer h.mu.Release()
	if err := h.releaseLocked(p, false); err != nil {
		return err
	}
	if err := h.ensure(p); err != nil {
		return err
	}
	return h.log.Recover(p, fn)
}
