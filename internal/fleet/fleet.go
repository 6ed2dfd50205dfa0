// Package fleet hosts N simulated 2B-SSD devices behind a shard
// router and drives multi-tenant traffic across them — the
// "millions of users" layer over the single-device reproduction.
//
// Topology: every device is one partition of a sim.Group; the
// partitions share one event queue, run on the caller's goroutine.
// A tenant's WAL (a ring of segment files) and volume live
// on its primary device (placed by the Router); a per-tenant shipper
// streams every durable record off the WAL's tailing reader (wal.Log.Tail)
// and ships it over a latency-modeled sim.Link to a follower device, which redoes the
// record into its own BA-mode log and acks. A tenant op counts as
// committed only when the follower's ack arrives (synchronous
// replication), which is what makes failover lossless: when the
// primary's power is cut (an injected fault.Plan trigger), the client
// reroutes to the follower, which first verifies its redo log from
// NAND — every applied record recovered, nothing phantom — and then
// serves as the new primary.
//
// Per-device QoS on the 8-entry BA mapping table is in qos.go; the
// shard router in router.go; traffic shapes come from
// internal/traffic.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"twobssd/internal/arena"
	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// CrashSpec injects a primary power loss: device Device trips at
// virtual time At (a fault.Plan PowerLoss trigger installed on that
// partition). Device < 0 selects the primary of tenant 0, which
// guarantees the crash actually exercises a failover.
type CrashSpec struct {
	Device int
	At     sim.Time
}

// Config describes a fleet run. Zero-valued knobs take defaults.
type Config struct {
	Devices int    // device count (>= 2: replication needs a distinct follower)
	Policy  Policy // shard-router placement policy
	// Deprecated: ignored. A fleet runs on the caller's goroutine.
	Workers int

	NetLatency sim.Duration // one-way link latency (0 = 5us)

	Device   *core.Config // per-device config (nil = DefaultDeviceConfig)
	QoS      QoSConfig
	LogBytes int64 // per-tenant WAL/redo file capacity (0 = 512 KB)

	Tenants []traffic.Spec
	Crash   *CrashSpec
	// Deprecated: ignored. No fault class draws from a seed; each
	// tenant's traffic.Spec carries its own.
	Seed uint64
}

const (
	applyCPU     = 2 * sim.Microsecond // follower per-record redo CPU
	segmentBytes = 4096                // one page: a slot half, the unit a log pins and flushes
	volumeBytes  = 256 << 10           // per-tenant data-volume capacity
)

func (c *Config) netLatency() sim.Duration {
	if c.NetLatency <= 0 {
		return 5 * sim.Microsecond
	}
	return c.NetLatency
}

func (c *Config) logBytes() int64 {
	if c.LogBytes <= 0 {
		return 512 << 10
	}
	return c.LogBytes
}

// DefaultDeviceConfig is a fleet device: core.SmallConfig, so a
// multi-device fleet stays cheap to simulate.
func DefaultDeviceConfig() core.Config { return core.SmallConfig() }

// repMsg travels primary→follower: one committed (or, after failover,
// rerouted) record. fail marks the failover notification the crashed
// node emits. The payload is shared with the sender — the primary log's
// tail cache, or the op's own record — and read-only on both sides:
// nothing writes those bytes after they are sent (the arenas both come
// from carve later records out of bytes never handed out), so
// partitions share no mutable memory.
type repMsg struct {
	seq     int
	at      sim.Time // open-loop arrival instant
	commit  sim.Time // primary commit time (local == true)
	local   bool     // committed on the primary before shipping
	fail    bool     // failover marker (tripAt set)
	tripAt  sim.Time
	payload []byte
}

// ackMsg travels follower→primary.
type ackMsg struct{ seq int }

// node is one device partition.
type node struct {
	idx   int
	env   *sim.Env
	ssd   *core.TwoBSSD
	fs    *vfs.FS
	slots *slotManager
	inj   *fault.Injector

	down      bool
	downAt    sim.Time
	primaries []*tenantRT // tenants whose primary this node is
	errs      []string
}

// crash cuts the node's power exactly once and notifies the follower
// of every tenant primaried here. The notice leaves at the trip, before
// the capacitor dump: the dump is the dead drive's own work (Section
// III-A4), so the follower's verify runs beside it, and every takeover
// record an op reroutes during the dump reaches the follower behind
// the marker. Send never yields, so no process runs between the trip
// and the cut. Insufficient capacitor energy or a torn dump are
// legitimate modeled outcomes, not harness errors.
func (n *node) crash(p *sim.Proc) {
	if n.down {
		return
	}
	n.down = true
	n.downAt = n.env.Now()
	for _, t := range n.primaries {
		if !t.dataClosed {
			t.data.Send(p, repMsg{fail: true, tripAt: n.downAt})
		}
		// Wake a shipper parked on the tail signal so it observes the
		// cut and exits instead of waiting for records that never come.
		t.h.log.WakeTail()
	}
	if _, err := n.ssd.PowerLoss(p); err != nil &&
		!errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		n.errs = append(n.errs, fmt.Sprintf("dev%d power loss: %v", n.idx, err))
	}
}

// tenantRT is one tenant's runtime state. Fields are strictly owned by
// one partition: client-side fields (sched/acked/inflight/...) by the
// primary's env, follower-side fields (applied/recovered/...) by the
// follower's env. The host reads everything only after Group.Run.
type tenantRT struct {
	fr    *fleetRT
	idx   int
	spec  traffic.Spec
	name  string
	place Placement
	pnode *node
	fnode *node

	sched  []traffic.Op
	opName string               // "fleet.op.<name>", built once
	opFn   func(*sim.Proc, int) // t.opBody, bound once
	h      *logHandle           // tenant WAL on the primary
	tail   *wal.TailReader
	vol    *vfs.File  // data volume on the primary
	redo   *logHandle // replicated log on the follower
	data   *sim.Link[repMsg]
	ack    *sim.Link[ackMsg]

	// ---- client side (primary env) ----
	wg          *sim.WaitGroup
	doneSig     *sim.Signal
	shipDone    *sim.Signal
	clientDone  bool
	dataClosed  bool
	ackClosed   bool // follower gone: local-only degraded mode
	produceDone bool // all op procs finished; shipper may drain and exit
	shipperDone bool
	inflight    int
	sent        []bool
	acked       []bool
	committed   []bool // committed on the primary's log
	ackedN      int
	reads       int
	degraded    int
	takeover    int
	lostP       int
	phantomP    int
	errsP       []string
	records     arena.Arena // every write's record, carved once and never reused
	readBufs    [][]byte    // idle volume-read pages: reads in flight each hold one
	hLat        *histo.H
	cCommits    *obs.Counter
	cThrottled  *obs.Counter
	cRetries    *obs.Counter
	cDropped    *obs.Counter

	// ---- follower side (follower env) ----
	applied      seqCRCs // payload CRC of each seq applied to the redo log
	appliedN     int
	failedOver   bool
	failTripAt   sim.Time
	failVerifyAt sim.Time
	lostFail     int
	phantomFail  int
	lostF        int
	phantomF     int
	errsF        []string
	hLag         *histo.H
}

// seqCRCs is a dense table of payload CRCs over one tenant's schedule,
// indexed by seq (0 … len(sched)-1): entry seq holds 1<<32 | crc, or 0
// when the seq has no record.
type seqCRCs []uint64

func (s seqCRCs) set(seq int, crc uint32) { s[seq] = 1<<32 | uint64(crc) }

// fleetRT carries run-wide derived values.
type fleetRT struct {
	cfg     *Config
	nodes   []*node
	router  *Router
	tenants []*tenantRT
}

// appendPayload appends tenant name's record for op seq (>= 0) to dst:
// the head "name|seq|key|", seq zero-padded to 6 decimal digits and the
// key's low 32 bits as 8 hex digits, then 'x' fill up to size bytes. A
// head longer than size is not cut.
func appendPayload(dst []byte, name string, seq int, key int64, size int) []byte {
	start := len(dst)
	dst = append(dst, name...)
	dst = append(dst, '|')
	// seq, zero-padded to six digits; key, eight hex digits.
	for pow := uint64(100_000); pow > 1 && uint64(seq) < pow; pow /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendUint(dst, uint64(seq), 10)
	dst = append(dst, '|')
	const hex = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[uint32(key)>>shift&15])
	}
	dst = append(dst, '|')
	for n := size - (len(dst) - start); n > 0; n -= len(xFill) {
		dst = append(dst, xFill[:min(n, len(xFill))]...)
	}
	return dst
}

const xFill = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"

// payloadCap is a capacity that holds any record appendPayload writes
// for name at size without growing.
func payloadCap(name string, size int) int {
	return max(size, len(name)+3+20+8)
}

// payloadSeq recovers the sequence number stamped by appendPayload: the
// decimal digits between the first and second '|'.
func payloadSeq(payload []byte) (int, bool) {
	i := bytes.IndexByte(payload, '|')
	if i < 0 {
		return 0, false
	}
	rest := payload[i+1:]
	j := bytes.IndexByte(rest, '|')
	if j <= 0 || j > 18 { // empty, or too long to fit an int
		return 0, false
	}
	seq := 0
	for _, c := range rest[:j] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

func newNode(g *sim.Group, fr *fleetRT, devCfg core.Config, d int) *node {
	env := g.NewEnv(fmt.Sprintf("dev%d", d))
	crash := fr.cfg.Crash
	if crash != nil && crash.Device == d {
		fault.Install(env, fault.Plan{PowerLoss: fault.Trigger{At: crash.At}})
	}
	ssd := core.New(env, devCfg)
	n := &node{
		idx: d, env: env, ssd: ssd,
		fs:  vfs.New(ssd.Device()),
		inj: fault.Of(env),
	}
	n.slots = newSlotManager(env, fr.cfg.QoS, ssd.Config().MaxEntries, segmentBytes)
	if crash != nil && crash.Device == d {
		// The power watcher is the trigger's "poll at op boundary"
		// moment for the whole node: it cuts power at the trip instant.
		env.GoAt(crash.At, "fleet.powercut", func(p *sim.Proc) { n.crash(p) })
	}
	return n
}

func newTenant(g *sim.Group, fr *fleetRT, idx int, spec traffic.Spec) (*tenantRT, error) {
	cfg := fr.cfg
	name := spec.Tenant
	if name == "" {
		name = fmt.Sprintf("t%d", idx)
		spec.Tenant = name
	}
	place := fr.router.Place(idx, name, len(cfg.Tenants))
	if place.Primary == place.Follower {
		return nil, fmt.Errorf("fleet: tenant %s placed on a single device", name)
	}
	pn, fn := fr.nodes[place.Primary], fr.nodes[place.Follower]
	vol, err := pn.fs.Create("vol-"+name, volumeBytes)
	if err != nil {
		return nil, err
	}
	t := &tenantRT{
		fr: fr, idx: idx, spec: spec, name: name, place: place,
		pnode: pn, fnode: fn,
		vol:  vol,
		data: sim.NewLink[repMsg](g, pn.env, fn.env, "data-"+name, cfg.netLatency()),
		ack:  sim.NewLink[ackMsg](g, fn.env, pn.env, "ack-"+name, cfg.netLatency()),
	}
	// The logs create their own ring files ("wal-t0.0".."3" plus the
	// checkpoint meta page) on each device's filesystem. Only the
	// primary's is tailed, and its reader is opened before the first
	// append: a log retains records for tailing from that point on.
	if t.h, err = newLogHandle(pn.slots, pn.ssd, pn.fs, "wal-"+name, name, cfg.logBytes()); err != nil {
		return nil, err
	}
	t.tail = t.h.log.Tail(0)
	if t.redo, err = newLogHandle(fn.slots, fn.ssd, fn.fs, "redo-"+name, name+".redo", cfg.logBytes()); err != nil {
		return nil, err
	}
	t.sched = spec.Gen().Schedule()
	t.opName, t.opFn = "fleet.op."+name, t.opBody
	t.wg = pn.env.NewWaitGroup("fleet." + name + ".ops")
	t.doneSig = pn.env.NewSignal("fleet." + name + ".done")
	t.shipDone = pn.env.NewSignal("fleet." + name + ".ship")
	t.sent = make([]bool, len(t.sched))
	t.acked = make([]bool, len(t.sched))
	t.committed = make([]bool, len(t.sched))
	t.applied = make(seqCRCs, len(t.sched))
	preg := obs.Of(pn.env).Registry()
	t.hLat = preg.Histo(fmt.Sprintf("fleet.%s.latency_ns", name))
	t.cCommits = preg.Counter(fmt.Sprintf("fleet.%s.commits", name))
	t.cThrottled = preg.Counter(fmt.Sprintf("fleet.%s.throttled", name))
	t.cRetries = preg.Counter(fmt.Sprintf("fleet.%s.retries", name))
	t.cDropped = preg.Counter(fmt.Sprintf("fleet.%s.dropped", name))
	t.hLag = obs.Of(fn.env).Registry().Histo(fmt.Sprintf("fleet.%s.rep_lag_ns", name))
	pn.primaries = append(pn.primaries, t)
	return t, nil
}

func (t *tenantRT) spawn() {
	t.pnode.env.Go("fleet.client."+t.name, t.runClient)
	t.pnode.env.Go("fleet.ship."+t.name, t.runShipper)
	t.pnode.env.Go("fleet.acks."+t.name, t.runAckWatch)
	t.fnode.env.Go("fleet.redo."+t.name, t.runFollower)
}

// runShipper streams the primary WAL to the follower through the
// log's tailing reader: every record the log reports durable
// is shipped in LSN order, decoupled from the op procs that committed
// it. The reader hands records straight from the log's retention
// cache, so replication needs no second media read and no op-side
// bookkeeping beyond the commit itself.
func (t *tenantRT) runShipper(p *sim.Proc) {
	defer func() {
		t.shipperDone = true
		t.shipDone.Fire()
	}()
	r := t.tail
	defer r.Close()
	for {
		if t.pnode.down || t.ackClosed || t.dataClosed {
			return
		}
		rec, ok, err := r.TryNext()
		if err != nil {
			return // closed or truncated under us: nothing left to ship
		}
		if !ok {
			if t.produceDone && int64(r.Pos()) >= t.h.log.DurableOff() {
				return // drained the final durable frontier
			}
			t.h.log.WaitTail(p)
			continue
		}
		seq, valid := payloadSeq(rec.Payload)
		if !valid || t.sent[seq] {
			continue
		}
		t.sent[seq] = true
		t.data.Send(p, repMsg{
			seq: seq, at: t.sched[seq].At, commit: rec.At, local: true,
			payload: rec.Payload,
		})
	}
}

// runClient is the open-loop dispatcher: it releases one op proc at
// every scheduled arrival regardless of how far behind service is.
func (t *tenantRT) runClient(p *sim.Proc) {
	for i := range t.sched {
		at := t.sched[i].At
		if at > t.pnode.env.Now() {
			p.Sleep(sim.Duration(at - t.pnode.env.Now()))
		}
		t.wg.Add(1)
		t.pnode.env.GoIdx(t.opName, i, t.opFn)
	}
	t.wg.Wait(p)
	// Let the shipper drain the durable tail before closing the data
	// link: records commit through op procs but ship through the tail
	// reader, so the link must stay open until the reader catches up.
	t.produceDone = true
	t.h.log.WakeTail()
	for !t.shipperDone {
		t.shipDone.Wait(p)
	}
	t.dataClosed = true
	t.data.Close(p)
	t.clientDone = true
	t.doneSig.Fire()
}

// opBody services one arrival: admission (with the tenant's retry
// policy), then either a volume read, a primary commit + replication
// ship, or — with the primary down — a rerouted takeover send.
func (t *tenantRT) opBody(p *sim.Proc, i int) {
	defer t.wg.Done()
	op := t.sched[i]
	env := t.pnode.env
	for attempt := 0; t.inflight >= t.fr.cfg.QoS.maxInflight(); {
		t.cThrottled.Inc()
		attempt++
		if attempt > t.spec.MaxRetries {
			t.cDropped.Inc()
			return
		}
		t.cRetries.Inc()
		p.Sleep(t.spec.Backoff(i, attempt))
	}
	t.inflight++
	if op.Read {
		if t.pnode.down {
			t.cDropped.Inc()
			t.inflight--
			return
		}
		buf := t.readBuf()
		pageSize := int64(len(buf))
		pages := t.vol.Capacity() / pageSize
		off := (op.Key % pages) * pageSize
		err := t.vol.ReadAt(p, off, buf)
		t.readBufs = append(t.readBufs, buf)
		if err != nil {
			if !errors.Is(err, core.ErrPowerIsOff) {
				t.errsP = append(t.errsP, fmt.Sprintf("%s read: %v", t.name, err))
			}
			t.cDropped.Inc()
			t.inflight--
			return
		}
		t.reads++
		t.hLat.Observe(sim.Duration(env.Now() - op.At))
		t.inflight--
		return
	}
	// One record per write, never reused: append yields before the log
	// copies it, and a takeover send shares it with the follower.
	size := t.spec.PayloadBytes
	payload := appendPayload(t.records.Alloc(payloadCap(t.name, size)), t.name, i, op.Key, size)
	if !t.pnode.down {
		err := t.h.append(p, payload)
		if err == nil {
			t.committed[i] = true
			t.cCommits.Inc()
			if t.ackClosed {
				// Follower is gone: the local commit is the whole story.
				t.degraded++
				t.hLat.Observe(sim.Duration(env.Now() - op.At))
				t.inflight--
				return
			}
			// The tail-reader shipper picks the record up from here; the
			// op completes (inflight--) when the follower's ack arrives.
			return
		}
		if !errors.Is(err, core.ErrPowerIsOff) && !t.pnode.down {
			t.errsP = append(t.errsP, fmt.Sprintf("%s append: %v", t.name, err))
			t.inflight--
			return
		}
		t.pnode.crash(p) // power died under us: make the cut official
	}
	// Primary down: reroute to the follower (the new primary).
	if t.ackClosed || t.dataClosed {
		t.cDropped.Inc()
		t.inflight--
		return
	}
	t.takeover++
	t.sent[i] = true
	t.data.Send(p, repMsg{seq: i, at: op.At, payload: payload})
}

// readBuf returns a page for one volume read: the page lands in it
// while the read runs, so concurrent reads each need their own.
func (t *tenantRT) readBuf() []byte {
	if n := len(t.readBufs); n > 0 {
		buf := t.readBufs[n-1]
		t.readBufs = t.readBufs[:n-1]
		return buf
	}
	return make([]byte, t.pnode.ssd.PageSize())
}

// runAckWatch completes ops as follower acks arrive and, once traffic
// has drained, runs the end-of-run media check on a live primary log.
func (t *tenantRT) runAckWatch(p *sim.Proc) {
	env := t.pnode.env
	for {
		a, ok := t.ack.Recv(p)
		if !ok {
			// Follower gone (or clean end): finish outstanding ops that
			// did commit locally as degraded completions — whether or
			// not the shipper got to them before the follower vanished.
			t.ackClosed = true
			t.h.log.WakeTail() // release a parked shipper
			for i := range t.sched {
				if t.committed[i] && !t.acked[i] {
					t.degraded++
					t.hLat.Observe(sim.Duration(env.Now() - t.sched[i].At))
				}
			}
			t.inflight = 0
			break
		}
		if !t.acked[a.seq] {
			t.acked[a.seq] = true
			t.ackedN++
			if t.inflight > 0 {
				t.inflight--
			}
			t.hLat.Observe(sim.Duration(env.Now() - t.sched[a.seq].At))
		}
	}
	for !t.clientDone {
		t.doneSig.Wait(p)
	}
	if t.pnode.down {
		return
	}
	// End-of-run oracle check: everything committed on this primary
	// must be recoverable from NAND, and nothing else may be.
	want := make(seqCRCs, len(t.sched))
	size := t.spec.PayloadBytes
	buf := make([]byte, 0, payloadCap(t.name, size))
	for i := range t.sched {
		if t.committed[i] {
			buf = appendPayload(buf[:0], t.name, i, t.sched[i].Key, size)
			want.set(i, crc32.ChecksumIEEE(buf))
		}
	}
	lost, phantom, err := mediaCheck(p, t.h, want)
	if err != nil {
		if !errors.Is(err, core.ErrPowerIsOff) {
			t.errsP = append(t.errsP, fmt.Sprintf("%s end recover: %v", t.name, err))
		}
		return
	}
	t.lostP, t.phantomP = lost, phantom
	if rerr := t.h.release(p); rerr != nil && !errors.Is(rerr, core.ErrPowerIsOff) {
		t.errsP = append(t.errsP, fmt.Sprintf("%s release: %v", t.name, rerr))
	}
}

// runFollower applies replicated records into the redo log, acks, and
// handles the failover protocol.
func (t *tenantRT) runFollower(p *sim.Proc) {
	env := t.fnode.env
	for {
		m, ok := t.data.Recv(p)
		if !ok {
			break
		}
		if t.fnode.down || t.fnode.inj.Tripped() {
			t.fnode.crash(p)
			t.ack.Close(p)
			return
		}
		if m.fail {
			t.verifyFailover(p, m.tripAt)
			continue
		}
		if !m.local && !t.failedOver {
			// A takeover record is an op served by the new primary,
			// which serves only once its verify has ended.
			t.errsF = append(t.errsF, fmt.Sprintf("%s: takeover seq %d applied before the failover verify", t.name, m.seq))
		}
		p.Sleep(applyCPU)
		if err := t.redo.append(p, m.payload); err != nil {
			if errors.Is(err, core.ErrPowerIsOff) || t.fnode.down {
				t.fnode.crash(p)
			} else {
				t.errsF = append(t.errsF, fmt.Sprintf("%s redo: %v", t.name, err))
			}
			t.ack.Close(p)
			return
		}
		t.applied.set(m.seq, crc32.ChecksumIEEE(m.payload))
		t.appliedN++
		if m.local {
			t.hLag.Observe(sim.Duration(env.Now() - m.commit))
		}
		t.ack.Send(p, ackMsg{seq: m.seq})
	}
	// Traffic drained: verify the redo log end to end from media.
	lost, phantom, err := mediaCheck(p, t.redo, t.applied)
	if err != nil {
		if !errors.Is(err, core.ErrPowerIsOff) {
			t.errsF = append(t.errsF, fmt.Sprintf("%s redo recover: %v", t.name, err))
		}
		t.ack.Close(p)
		return
	}
	t.lostF, t.phantomF = lost, phantom
	if rerr := t.redo.release(p); rerr != nil && !errors.Is(rerr, core.ErrPowerIsOff) {
		t.errsF = append(t.errsF, fmt.Sprintf("%s redo release: %v", t.name, rerr))
	}
	t.ack.Close(p)
}

// verifyFailover is the takeover moment: before serving as the new
// primary, the follower re-reads its redo log from NAND and proves it
// holds exactly what was applied — no lost records, no phantoms. The
// verify duration is the tenant's failover recovery time.
func (t *tenantRT) verifyFailover(p *sim.Proc, tripAt sim.Time) {
	var err error
	if t.lostFail, t.phantomFail, err = mediaCheck(p, t.redo, t.applied); err != nil {
		t.errsF = append(t.errsF, fmt.Sprintf("%s failover recover: %v", t.name, err))
	}
	t.failedOver = true
	t.failTripAt = tripAt
	t.failVerifyAt = t.fnode.env.Now()
}

// mediaCheck recovers h's log from media and counts it against want: a
// wanted record that is missing or differs is lost; a recovered record
// that is unparsable, not wanted or past the schedule is phantom, once
// per seq (the last record of a seq decides). On a recovery error the
// counts cover what was read before it.
func mediaCheck(p *sim.Proc, h *logHandle, want seqCRCs) (lost, phantom int, err error) {
	rec := make(seqCRCs, len(want))
	var beyond map[int]bool // seqs past the schedule: only a broken log has any
	err = h.recover(p, func(_ wal.LSN, payload []byte) error {
		seq, ok := payloadSeq(payload)
		switch {
		case !ok:
			phantom++
		case seq >= len(rec):
			if beyond == nil {
				beyond = make(map[int]bool)
			}
			beyond[seq] = true
		default:
			rec.set(seq, crc32.ChecksumIEEE(payload))
		}
		return nil
	})
	for seq, w := range want {
		if w != 0 && rec[seq] != w {
			lost++
		}
		if w == 0 && rec[seq] != 0 {
			phantom++
		}
	}
	return lost, phantom + len(beyond), err
}

// ---- results ----

// TenantResult is one tenant's deterministic outcome.
type TenantResult struct {
	Name     string
	Primary  int
	Follower int

	Ops       int // scheduled arrivals
	Acked     int // replicated + acked completions
	Reads     int
	Degraded  int // completed local-only (follower gone)
	Takeover  int // rerouted to the follower after primary loss
	Dropped   int
	Throttled int
	Retries   int
	Applied   int // records the follower applied

	LatP50, LatP99, LatMax sim.Duration
	RepLagP50, RepLagMax   sim.Duration
	QoSWaitP99             sim.Duration
	Evictions              uint64

	FailedOver bool
	Recovery   sim.Duration // failover verify duration past the trip
	Lost       int
	Phantom    int
	Errs       []string
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Down      bool
	Fairness  float64 // Jain index over per-stream attained slot time
	Leases    uint64
	Evictions uint64
}

// FailoverResult aggregates the injected-crash outcome.
type FailoverResult struct {
	Device      int
	TripAt      sim.Time
	Tenants     int // tenants that failed over
	RecoveryMax sim.Duration
	Lost        int
	Phantom     int
}

// Result is a fleet run's full deterministic outcome.
type Result struct {
	Tenants  []TenantResult
	Devices  []DeviceResult
	Failover *FailoverResult
	Events   uint64
	Audit    string // the failed end-of-run audit of the up devices ("" = passed)
}

// Violations lists every broken invariant: lost or phantom records,
// harness errors, a configured crash that failed to fail over, or a
// failed audit.
func (r *Result) Violations() []string {
	var v []string
	for i := range r.Tenants {
		t := &r.Tenants[i]
		if t.Lost > 0 {
			v = append(v, fmt.Sprintf("%s: %d lost records", t.Name, t.Lost))
		}
		if t.Phantom > 0 {
			v = append(v, fmt.Sprintf("%s: %d phantom records", t.Name, t.Phantom))
		}
		v = append(v, t.Errs...)
	}
	if r.Failover != nil && r.Failover.Tenants == 0 {
		v = append(v, fmt.Sprintf("crash on dev%d triggered no failover", r.Failover.Device))
	}
	if r.Audit != "" {
		v = append(v, r.Audit)
	}
	return v
}

// Run executes the fleet and returns its outcome. The error covers
// configuration/build problems only; correctness violations are in
// Result.Violations so callers can report them with full context.
func Run(cfg Config) (*Result, error) {
	fr, g, err := build(cfg)
	if err != nil {
		return nil, err
	}
	g.Run()
	res := buildResult(fr, g.Events())
	g.Shutdown()
	return res, nil
}

// build checks cfg and builds the fleet on a new group, its tenants'
// processes spawned.
func build(cfg Config) (*fleetRT, *sim.Group, error) {
	if cfg.Devices < 2 {
		return nil, nil, errors.New("fleet: replication needs at least 2 devices")
	}
	if len(cfg.Tenants) == 0 {
		return nil, nil, errors.New("fleet: no tenants configured")
	}
	devCfg := DefaultDeviceConfig()
	if cfg.Device != nil {
		devCfg = *cfg.Device
	}
	fr := &fleetRT{cfg: &cfg, router: NewRouter(cfg.Policy, cfg.Devices)}
	if cfg.Crash != nil {
		if cfg.Crash.At <= 0 {
			return nil, nil, errors.New("fleet: crash needs a positive trip time")
		}
		if cfg.Crash.Device < 0 {
			// Default to tenant 0's primary so the crash provokes failover.
			c := *cfg.Crash
			name := cfg.Tenants[0].Tenant
			if name == "" {
				name = "t0"
			}
			c.Device = fr.router.Place(0, name, len(cfg.Tenants)).Primary
			cfg.Crash = &c
		}
		if cfg.Crash.Device >= cfg.Devices {
			return nil, nil, errors.New("fleet: crash device out of range")
		}
	}
	g := sim.NewGroup()
	fr.nodes = make([]*node, cfg.Devices)
	for d := range fr.nodes {
		fr.nodes[d] = newNode(g, fr, devCfg, d)
	}
	fr.tenants = make([]*tenantRT, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		t, err := newTenant(g, fr, i, spec)
		if err != nil {
			g.Shutdown()
			return nil, nil, err
		}
		fr.tenants[i] = t
	}
	for _, t := range fr.tenants {
		t.spawn()
	}
	return fr, g, nil
}

// Audit checks every up device: its lease table against the router —
// each slot's holder is a stream of that device whose lease names that
// slot; no stream holds two slots, or holds one while it waits — then
// its drive (core.TwoBSSD.Audit) and its file system's allocator
// (vfs.FS.Audit); and each tenant's WAL stream lives on
// the primary router.Place gives it, its redo stream on the follower.
// It is pure: no yields, no allocation on success, no registry writes.
// A crashed device stopped at the cut and is not read.
func (fr *fleetRT) Audit() error {
	for _, n := range fr.nodes {
		if n.down {
			continue
		}
		err := n.slots.audit()
		if err == nil {
			err = n.ssd.Audit()
		}
		if err == nil {
			err = n.fs.Audit()
		}
		if err != nil {
			return fmt.Errorf("fleet audit: dev%d: %w", n.idx, err)
		}
	}
	for _, t := range fr.tenants {
		place := fr.router.Place(t.idx, t.name, len(fr.tenants))
		for _, s := range [...]struct {
			h    *logHandle
			dev  int
			role string
		}{{t.h, place.Primary, "WAL"}, {t.redo, place.Follower, "redo"}} {
			if n := fr.nodes[s.dev]; !n.down && s.h.mgr != n.slots {
				return fmt.Errorf("fleet audit: %s's %s stream is not on dev%d, where the router places it", t.name, s.role, s.dev)
			}
		}
	}
	return nil
}

// buildResult gathers the outcome of the run fr made, its audit
// included.
func buildResult(fr *fleetRT, events uint64) *Result {
	res := &Result{Events: events}
	var fo *FailoverResult
	if fr.cfg.Crash != nil {
		fo = &FailoverResult{Device: fr.cfg.Crash.Device, TripAt: fr.cfg.Crash.At}
	}
	for _, t := range fr.tenants {
		tr := TenantResult{
			Name: t.name, Primary: t.place.Primary, Follower: t.place.Follower,
			Ops: len(t.sched), Acked: t.ackedN, Reads: t.reads,
			Degraded: t.degraded, Takeover: t.takeover, Dropped: int(t.cDropped.Value()),
			Throttled: int(t.cThrottled.Value()), Retries: int(t.cRetries.Value()), Applied: t.appliedN,
			LatP50: t.hLat.P50(), LatP99: t.hLat.P99(), LatMax: t.hLat.Max(),
			RepLagP50:  t.hLag.P50(),
			RepLagMax:  t.hLag.Max(),
			QoSWaitP99: maxDur(t.h.hWait.P99(), t.redo.hWait.P99()),
			Evictions:  t.h.cEvict.Value() + t.redo.cEvict.Value(),
			FailedOver: t.failedOver,
			Lost:       t.lostP + t.lostF + t.lostFail,
			Phantom:    t.phantomP + t.phantomF + t.phantomFail,
		}
		tr.Errs = append(tr.Errs, t.errsP...)
		tr.Errs = append(tr.Errs, t.errsF...)
		if t.failedOver {
			tr.Recovery = sim.Duration(t.failVerifyAt - t.failTripAt)
			if fo != nil {
				fo.Tenants++
				fo.Lost += t.lostFail
				fo.Phantom += t.phantomFail
				if tr.Recovery > fo.RecoveryMax {
					fo.RecoveryMax = tr.Recovery
				}
			}
		}
		res.Tenants = append(res.Tenants, tr)
	}
	for _, n := range fr.nodes {
		res.Devices = append(res.Devices, DeviceResult{
			Down:      n.down,
			Fairness:  n.slots.fairness(),
			Leases:    n.slots.cLeases.Value(),
			Evictions: n.slots.cEvict.Value(),
		})
		for i := range res.Tenants {
			res.Tenants[i].Errs = append(res.Tenants[i].Errs, n.errs...)
			break // node errors once, on the first tenant
		}
	}
	res.Failover = fo
	if err := fr.Audit(); err != nil {
		res.Audit = err.Error()
	}
	return res
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
