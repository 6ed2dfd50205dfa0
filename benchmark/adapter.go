package main

// adapter.go is the only file of the benchmark that imports the
// repository's packages. Workloads, probes and tracing are written
// against the small surface declared here, so a change that moves an
// API of the repository has this one file to keep compiling.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/fleet"
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/lsm"
	"twobssd/internal/nand"
	"twobssd/internal/obs"
	"twobssd/internal/pcie"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
	"twobssd/internal/ycsb"
)

// Proc is one simulation process. The benchmark only passes it through
// to the calls below.
type Proc = sim.Proc

// Sim is one simulated environment: a virtual clock, its processes and
// its always-on metrics registry.
type Sim struct{ env *sim.Env }

// NewSim returns an environment with the clock at zero.
func NewSim() *Sim { return &Sim{env: sim.NewEnv()} }

// Go starts a process.
func (s *Sim) Go(name string, body func(p *Proc)) { s.env.Go(name, body) }

// Run executes events until the environment is quiet. A process fault
// (the kernel re-panics it on the caller) comes back as an error, so a
// workload can count its unissued operations as failed and still report.
func (s *Sim) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulator fault: %v", r)
		}
	}()
	s.env.Run()
	return nil
}

// NowNs is the virtual clock in nanoseconds.
func (s *Sim) NowNs() int64 { return int64(s.env.Now()) }

// Events is the number of events dispatched so far.
func (s *Sim) Events() uint64 { return s.env.Events() }

// Close unwinds every process and releases the environment's memory.
func (s *Sim) Close() {
	defer func() { _ = recover() }() // a faulted environment may not unwind cleanly
	s.env.Shutdown()
}

// SleepNs advances virtual time for the calling process.
func SleepNs(p *Proc, ns int64) { p.Sleep(sim.Duration(ns)) }

// Counts is a registry reading under layer-stable names. Device series
// are registered per device name ("ULL-SSD.read_cmds"); they are summed
// under "device.*" here so callers do not depend on profile names.
type Counts struct {
	C       map[string]uint64  // counters
	G       map[string]float64 // gauges, sampled now
	HistN   map[string]uint64  // histogram sample counts
	HistSum map[string]int64   // histogram sums, virtual ns
}

var deviceSeries = []string{
	".read_cmds", ".write_cmds", ".flush_cmds", ".pages_read", ".pages_written",
	".gated_reads", ".gated_writes", ".read_cmd_ns", ".write_cmd_ns", ".flush_ns",
}

func layerName(series string) string {
	for _, suf := range deviceSeries {
		if strings.HasSuffix(series, suf) {
			return "device" + suf
		}
	}
	return series
}

func countsOf(snap obs.Snapshot) Counts {
	c := Counts{
		C: map[string]uint64{}, G: map[string]float64{},
		HistN: map[string]uint64{}, HistSum: map[string]int64{},
	}
	for n, v := range snap.Counters {
		c.C[layerName(n)] += v
	}
	for n, v := range snap.Gauges {
		c.G[n] = v
	}
	for n, h := range snap.Histograms {
		c.HistN[layerName(n)] += h.N
		c.HistSum[layerName(n)] += h.SumNs
	}
	return c
}

// Counts reads the environment's registry.
func (s *Sim) Counts() Counts { return countsOf(obs.Of(s.env).Snapshot()) }

// Hist is a latency histogram read out of the registry: log-spaced
// buckets (about 4 % wide) with exact count, sum and maximum.
type Hist struct {
	N       uint64
	SumNs   int64
	MaxNs   int64
	Buckets []HistBucket // ascending
}

// HistBucket holds the samples that fell in [LoNs, HiNs).
type HistBucket struct {
	LoNs, HiNs float64
	N          uint64
}

// histBucketsPerOctave mirrors internal/histo's bucket layout.
const histBucketsPerOctave = 16

func histOf(h *histo.H) Hist {
	out := Hist{N: h.N(), SumNs: int64(h.Sum()), MaxNs: int64(h.Max())}
	for _, b := range h.WindowSince(nil).Buckets {
		out.Buckets = append(out.Buckets, HistBucket{
			LoNs: math.Exp2(float64(b.Idx) / histBucketsPerOctave),
			HiNs: math.Exp2(float64(b.Idx+1) / histBucketsPerOctave),
			N:    b.Count,
		})
	}
	return out
}

// ---- key-value stack: lsm over wal over a 2B-SSD ----

// KVMode selects where the LSM engine's write-ahead log commits.
type KVMode int

const (
	KVBA    KVMode = iota // BA commit: MMIO stores + BA_SYNC on the BA-buffer
	KVBlock               // block commit: page write + FLUSH on the same drive
)

// KV is the paper's RocksDB-style set-up: the log on a full-spec
// 2B-SSD, SSTs on a separate ULL-SSD.
type KV struct {
	sim     *Sim
	ssd     *core.TwoBSSD
	dataDev *device.Device
	cfg     lsm.Config
	db      *lsm.DB
}

// OpenKV builds both devices and opens an empty store.
func OpenKV(s *Sim, p *Proc, mode KVMode) (*KV, error) {
	ssd := core.New(s.env, core.DefaultConfig())
	prof := device.ULLSSD()
	prof.Name = "data-" + prof.Name
	k := &KV{sim: s, ssd: ssd, dataDev: device.New(s.env, prof)}
	k.cfg = lsm.Config{
		DataFS:        vfs.New(k.dataDev),
		LogFS:         vfs.New(ssd.Device()),
		MemtableBytes: 1 << 20,
		// RocksDB-class host CPU per operation, as the repo's Fig 9 run.
		ReadCPU:  11 * sim.Microsecond,
		WriteCPU: 11 * sim.Microsecond,
	}
	if mode == KVBA {
		k.cfg.WALMode = wal.BA
		k.cfg.SSD = ssd
		k.cfg.EIDs = []core.EID{0, 1, 2, 3}
		k.cfg.WALBytes = ssd.Config().BABufferBytes / 4 // paper IV-B
	} else {
		k.cfg.WALMode = wal.Sync
		k.cfg.WALBytes = 2 << 20
	}
	db, err := lsm.Open(s.env, p, k.cfg)
	if err != nil {
		return nil, err
	}
	k.db = db
	return k, nil
}

func (k *KV) Get(p *Proc, key []byte) ([]byte, bool, error) { return k.db.Get(p, key) }
func (k *KV) Put(p *Proc, key, value []byte) error          { return k.db.Put(p, key, value) }
func (k *KV) FlushAll(p *Proc) error                        { return k.db.FlushAll(p) }

// PowerLoss cuts the log drive's power and returns the capacitor dump
// time. The data drive stays up, as a second drive would. The log
// drive's write buffer is let drain first: emptying it under GC does
// not fit the capacitors' energy (README, "Known limits").
func (k *KV) PowerLoss(p *Proc) (dumpNs int64, err error) {
	if err := k.ssd.Device().Drain(p); err != nil {
		return 0, err
	}
	rep, err := k.ssd.PowerLoss(p)
	return int64(rep.DumpDuration), err
}

// Reopen powers the log drive on and opens the store again, which
// replays the surviving logs. The engine keeps no manifest, so the new
// incarnation gets a fresh SST namespace and serves only what the logs
// held (README, "Known limits").
func (k *KV) Reopen(p *Proc) error {
	if err := k.ssd.PowerOn(p); err != nil {
		return err
	}
	k.cfg.DataFS = vfs.New(k.dataDev)
	db, err := lsm.Open(k.sim.env, p, k.cfg)
	if err != nil {
		return err
	}
	k.db = db
	return nil
}

// LSMCounts reads the engine's counters. lsm publishes no registry
// series, so this is the benchmark's one use of a Stats() struct.
func (k *KV) LSMCounts() map[string]float64 {
	st := k.db.Stats()
	return map[string]float64{
		"rotations":    float64(st.MemtableRotations),
		"flushes":      float64(st.Flushes),
		"compactions":  float64(st.Compactions),
		"cache_hits":   float64(st.CacheHits),
		"cache_misses": float64(st.CacheMiss),
		"stall_ns":     float64(st.StallTime),
	}
}

// OpGen is the YCSB workload-A generator: 50 % reads, 50 % updates,
// Zipfian key popularity (theta 0.99).
type OpGen struct{ g *ycsb.Generator }

func NewOpGen(records int64, payload int, seed int64) *OpGen {
	return &OpGen{g: ycsb.NewGenerator(ycsb.WorkloadA(records, payload, seed))}
}

// Next draws one operation. The key is valid until the next call.
func (g *OpGen) Next() (read bool, key []byte) {
	op := g.g.Next()
	return op.Kind == ycsb.OpRead, op.Key
}

// Key is the i-th record's key, valid until the next call.
func (g *OpGen) Key(i int64) []byte { return g.g.Key(i) }

// ---- raw block stack: the 2B-SSD's block path ----

// Blk is a 2B-SSD driven through its block interface, with the BA
// mapping table populated so the LBA checker runs on every command.
type Blk struct {
	ssd *core.TwoBSSD
	dev *device.Device
}

// OpenBlk builds a 2B-SSD of the paper's specification with
// blocksPerDie flash blocks per die.
func OpenBlk(s *Sim, blocksPerDie, drainWorkers int) *Blk {
	cfg := core.DefaultConfig()
	cfg.Base.Nand.BlocksPerDie = blocksPerDie
	cfg.Base.DrainWorkers = drainWorkers
	ssd := core.New(s.env, cfg)
	return &Blk{ssd: ssd, dev: ssd.Device()}
}

func (b *Blk) Pages() int    { return int(b.dev.Pages()) }
func (b *Blk) PageSize() int { return b.dev.PageSize() }
func (b *Blk) Entries() int  { return b.ssd.Config().MaxEntries }

// EntryPages is the largest equal share of the BA-buffer per entry.
func (b *Blk) EntryPages() int { return b.ssd.BufferPages() / b.Entries() }

// Pin binds entry eid's share of the BA-buffer to pages at lba.
func (b *Blk) Pin(p *Proc, eid int, lba int) error {
	n := b.EntryPages()
	return b.ssd.BAPin(p, core.EID(eid), eid*n*b.PageSize(), ftl.LBA(lba), n)
}

func (b *Blk) Read(p *Proc, lba, pages int) ([]byte, error) {
	return b.dev.ReadPages(p, ftl.LBA(lba), pages)
}

func (b *Blk) Write(p *Proc, lba int, data []byte) error {
	return b.dev.WritePages(p, ftl.LBA(lba), data)
}

// BAWrite stores data at byte offset off of entry eid over MMIO and
// makes it durable with BA_SYNC.
func (b *Blk) BAWrite(p *Proc, eid, off int, data []byte) error {
	if err := b.ssd.Mmio().Write(p, eid*b.EntryPages()*b.PageSize()+off, data); err != nil {
		return err
	}
	return b.ssd.BASync(p, core.EID(eid))
}

// BARead loads bytes of entry eid over MMIO.
func (b *Blk) BARead(p *Proc, eid, off int, buf []byte) error {
	return b.ssd.Mmio().Read(p, eid*b.EntryPages()*b.PageSize()+off, buf)
}

// Drain waits until the write buffer has reached NAND.
func (b *Blk) Drain(p *Proc) error { return b.dev.Drain(p) }

func (b *Blk) PowerLoss(p *Proc) (dumpNs int64, err error) {
	rep, err := b.ssd.PowerLoss(p)
	return int64(rep.DumpDuration), err
}

func (b *Blk) PowerOn(p *Proc) error { return b.ssd.PowerOn(p) }

// IsGated reports whether err is the LBA checker refusing a command.
func IsGated(err error) bool { return errors.Is(err, core.ErrPinnedRange) }

// ---- fleet: sharded devices, replicated BA logs, tenant QoS ----

// FleetParams describes one fleet round.
type FleetParams struct {
	Devices, Tenants int
	Arrivals         int     // per tenant
	RatePerSec       float64 // per tenant, Poisson, open loop
	ReadFraction     float64
	PayloadBytes     int
	Keys             int64
	Theta            float64
	Slots, BurstOps  int
	MaxInflight      int
	MaxRetries       int
	RetryBackoffNs   int64
	NetLatencyNs     int64
	LogBytes         int64
	BlocksPerDie     int
	CrashAtSpanFrac  float64 // 0 = no crash; else primary of tenant 0 trips here
	Seed             uint64
}

// FleetTenant is one tenant's outcome.
type FleetTenant struct {
	Name                   string
	Primary, Follower      int
	Ops, Completed, Writes int
	Dropped, Lost, Phantom int
	Takeover, Degraded     int
	Retries, Throttled     int
	Evictions              uint64
	FailedOver             bool
	RecoveryNs             int64
	Lat, RepLag, QoSWait   Hist
	Errs                   []string
}

// FleetOutcome is one round's deterministic result.
type FleetOutcome struct {
	Tenants       []FleetTenant
	RecoveryMaxNs int64
	FailedOver    int
	Fairness      []float64 // per device
	Leases        uint64
	Evictions     uint64
	Events        uint64
	SpanNs        int64 // largest device clock at the end of the round
	DeviceNowNs   []int64
	Counts        Counts // all devices merged
	Violations    []string
}

// RunFleetRound builds the fleet, drives the tenants' schedules to the
// end (through the injected power loss, if any) and tears it down.
func RunFleetRound(fp FleetParams) (out FleetOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulator fault: %v", r)
		}
	}()
	dev := fleet.DefaultDeviceConfig()
	dev.Base.Nand.BlocksPerDie = fp.BlocksPerDie
	router := fleet.NewRouter(fleet.Hash, fp.Devices)
	name := func(i int) string { return fmt.Sprintf("t%02d", i) }
	// Tenants on tenant 0's primary — the device a crash takes down —
	// issue writes only: the fleet refuses reads on a failed-over tenant.
	victim := router.Place(0, name(0), fp.Tenants).Primary
	specs := make([]traffic.Spec, fp.Tenants)
	for i := range specs {
		specs[i] = traffic.Spec{
			Tenant:       name(i),
			Seed:         fp.Seed + uint64(i)*0x9E37,
			Arrival:      traffic.Poisson{RatePerSec: fp.RatePerSec},
			Ops:          fp.Arrivals,
			Keys:         fp.Keys,
			Theta:        fp.Theta,
			ReadFraction: fp.ReadFraction,
			PayloadBytes: fp.PayloadBytes,
			MaxRetries:   fp.MaxRetries,
			RetryBackoff: sim.Duration(fp.RetryBackoffNs),
		}
		if router.Place(i, name(i), fp.Tenants).Primary == victim {
			specs[i].ReadFraction = 0
		}
	}
	cfg := fleet.Config{
		Devices:    fp.Devices,
		Policy:     fleet.Hash,
		Workers:    1,
		NetLatency: sim.Duration(fp.NetLatencyNs),
		Device:     &dev,
		QoS:        fleet.QoSConfig{Slots: fp.Slots, BurstOps: fp.BurstOps, MaxInflight: fp.MaxInflight},
		LogBytes:   fp.LogBytes,
		Tenants:    specs,
		Seed:       fp.Seed,
	}
	if fp.CrashAtSpanFrac > 0 {
		span := float64(fp.Arrivals) / fp.RatePerSec * 1e9
		cfg.Crash = &fleet.CrashSpec{Device: -1, At: sim.Time(fp.CrashAtSpanFrac * span)}
	}

	// fleet.Run builds and tears down its own environments; the hook
	// keeps their registries readable afterwards.
	var sets []*obs.Set
	prev := obs.OnNewSet
	obs.OnNewSet = func(s *obs.Set) {
		sets = append(sets, s)
		if prev != nil {
			prev(s)
		}
	}
	res, err := fleet.Run(cfg)
	obs.OnNewSet = prev
	if err != nil {
		return out, err
	}

	merged := obs.NewRegistry()
	for _, s := range sets {
		s.Registry().MergeInto(merged)
		now := int64(s.Env().Now())
		out.DeviceNowNs = append(out.DeviceNowNs, now)
		if now > out.SpanNs {
			out.SpanNs = now
		}
	}
	out.Counts = countsOf(merged.SnapshotAt(sim.Time(out.SpanNs)))
	out.Events = res.Events
	out.Violations = res.Violations()
	for _, d := range res.Devices {
		out.Fairness = append(out.Fairness, d.Fairness)
		out.Leases += d.Leases
		out.Evictions += d.Evictions
	}
	if res.Failover != nil {
		out.RecoveryMaxNs = int64(res.Failover.RecoveryMax)
		out.FailedOver = res.Failover.Tenants
	}
	for _, tr := range res.Tenants {
		ft := FleetTenant{
			Name: tr.Name, Primary: tr.Primary, Follower: tr.Follower,
			Ops:       tr.Ops,
			Completed: tr.Acked + tr.Reads + tr.Degraded,
			Writes:    tr.Acked + tr.Degraded,
			Dropped:   tr.Dropped, Lost: tr.Lost, Phantom: tr.Phantom,
			Takeover: tr.Takeover, Degraded: tr.Degraded,
			Retries: tr.Retries, Throttled: tr.Throttled,
			Evictions:  tr.Evictions,
			FailedOver: tr.FailedOver, RecoveryNs: int64(tr.Recovery),
			Errs: tr.Errs,
		}
		ft.Lat = histOf(merged.Histo("fleet." + tr.Name + ".latency_ns"))
		ft.RepLag = histOf(merged.Histo("fleet." + tr.Name + ".rep_lag_ns"))
		var wait histo.H
		wait.Merge(merged.Histo("fleet.qos." + tr.Name + ".wait_ns"))
		wait.Merge(merged.Histo("fleet.qos." + tr.Name + ".redo.wait_ns"))
		ft.QoSWait = histOf(&wait)
		out.Tenants = append(out.Tenants, ft)
	}
	return out, nil
}

// ---- layer probes: one public call of one layer, on a stack built
// from that layer down ----

// ProbeOp describes how to call one public function of one layer.
// Build runs inside a fresh environment and returns the call; Before,
// if set, runs untimed ahead of each call (to re-arm state). Counter
// names the registry series that counts this call's work in a traced
// run: calls, or pages for the calls that take a page count.
type ProbeOp struct {
	Name    string // "<layer>.<op>"
	Counter string
	N       int
	Build   func(s *Sim, p *Proc) (call func(p *Proc, i int) error, before func(p *Proc, i int) error, err error)
}

func (op ProbeOp) Layer() string { return op.Name[:strings.IndexByte(op.Name, '.')] }

// probe record and key shapes match the kv workloads.
const (
	probeValueBytes = 256
	probeKeyBytes   = 20
)

// probeKeys are formatted once, so a probe times the engine and not
// the key formatting.
var probeKeys = func() [][]byte {
	keys := make([][]byte, 1<<15)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016x", uint64(i)*0x9E3779B97F4A7C15))
	}
	return keys
}()

func probeKey(i int) []byte { return probeKeys[i] }

func stampPage(page []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(page, v)
	return page
}

// smallFlash is a 4-die array small enough to fill in milliseconds,
// with the ULL-SSD's timing.
func smallFlash() nand.Config {
	c := device.ULLSSD().Nand
	c.Channels, c.DiesPerChannel, c.BlocksPerDie, c.PagesPerBlock = 2, 2, 24, 32
	return c
}

// ProbeOps lists every probed call, lowest layer first: a layer's self
// cost is its inclusive cost minus the calls it makes further down.
func ProbeOps() []ProbeOp {
	none := func(call func(p *Proc, i int) error) (func(p *Proc, i int) error, func(p *Proc, i int) error, error) {
		return call, nil, nil
	}
	return []ProbeOp{
		// --- nand ---
		{Name: "nand.program", Counter: "nand.page_programs", N: 2048,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				cfg := device.ULLSSD().Nand
				fl := nand.New(s.env, cfg)
				page := make([]byte, cfg.PageSize)
				return none(func(p *Proc, i int) error {
					// Fill block after block in page order, die after die.
					die, blk, pg := (i/cfg.PagesPerBlock)%cfg.Dies(), i/(cfg.PagesPerBlock*cfg.Dies()), i%cfg.PagesPerBlock
					return fl.ProgramPage(p, cfg.PPAOf(die, blk, pg), stampPage(page, uint64(i)))
				})
			}},
		{Name: "nand.read", Counter: "nand.page_reads", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				cfg := device.ULLSSD().Nand
				fl := nand.New(s.env, cfg)
				page := make([]byte, cfg.PageSize)
				for i := 0; i < cfg.PagesPerBlock; i++ {
					if err := fl.ProgramPage(p, cfg.PPAOf(0, 0, i), stampPage(page, uint64(i))); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error {
					_, err := fl.ReadPage(p, cfg.PPAOf(0, 0, i%cfg.PagesPerBlock))
					return err
				})
			}},
		{Name: "nand.erase", Counter: "nand.block_erases", N: 64,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				cfg := device.ULLSSD().Nand
				fl := nand.New(s.env, cfg)
				return none(func(p *Proc, i int) error { return fl.EraseBlock(p, nand.BlockID(i)) })
			}},
		// --- ftl ---
		{Name: "ftl.write", Counter: "ftl.host_page_writes", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				cfg := device.ULLSSD()
				f := ftl.New(s.env, nand.New(s.env, cfg.Nand), cfg.FTL)
				page := make([]byte, cfg.Nand.PageSize)
				return none(func(p *Proc, i int) error { return f.WritePage(p, ftl.LBA(i), stampPage(page, uint64(i))) })
			}},
		{Name: "ftl.read", Counter: "ftl.host_page_reads", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				cfg := device.ULLSSD()
				f := ftl.New(s.env, nand.New(s.env, cfg.Nand), cfg.FTL)
				page := make([]byte, cfg.Nand.PageSize)
				for i := 0; i < 256; i++ {
					if err := f.WritePage(p, ftl.LBA(i), stampPage(page, uint64(i))); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error {
					_, err := f.ReadPage(p, ftl.LBA(i%256))
					return err
				})
			}},
		// ftl.write_gc overwrites a full small array, so every call pays
		// its share of garbage collection; probes.go turns the excess
		// over ftl.write into a cost per relocated page.
		{Name: "ftl.write_gc", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				nc := smallFlash()
				f := ftl.New(s.env, nand.New(s.env, nc), ftl.Config{OverProvision: 0.2})
				page := make([]byte, nc.PageSize)
				n := int(f.ExportedPages())
				for round := 0; round < 2; round++ {
					for i := 0; i < n; i++ {
						if err := f.WritePage(p, ftl.LBA(i*7919%n), stampPage(page, uint64(i))); err != nil {
							return nil, nil, err
						}
					}
				}
				return none(func(p *Proc, i int) error {
					return f.WritePage(p, ftl.LBA(i*104729%n), stampPage(page, uint64(i)))
				})
			}},
		// ftl.write_seq is its baseline: the same full array overwritten
		// in LBA order, so blocks die whole and nothing is relocated.
		{Name: "ftl.write_seq", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				nc := smallFlash()
				f := ftl.New(s.env, nand.New(s.env, nc), ftl.Config{OverProvision: 0.2})
				page := make([]byte, nc.PageSize)
				n := int(f.ExportedPages())
				for i := 0; i < 2*n; i++ {
					if err := f.WritePage(p, ftl.LBA(i%n), stampPage(page, uint64(i))); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error { return f.WritePage(p, ftl.LBA(i%n), stampPage(page, uint64(i))) })
			}},
		// --- device ---
		{Name: "device.write4k", Counter: "device.pages_written", N: 4096, Build: probeDeviceWrite(0)},
		// The same with one drain worker, as blk-mixed runs the drive:
		// every write wakes all idle drain workers, so their number is
		// most of this call's wall cost.
		{Name: "device.write4k_1w", N: 4096, Build: probeDeviceWrite(1)},
		{Name: "device.read4k", Counter: "device.pages_read", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				d := device.New(s.env, device.ULLSSD())
				page := make([]byte, d.PageSize())
				for i := 0; i < 256; i++ {
					if err := d.WritePages(p, ftl.LBA(i), stampPage(page, uint64(i))); err != nil {
						return nil, nil, err
					}
				}
				if err := d.Drain(p); err != nil {
					return nil, nil, err
				}
				return none(func(p *Proc, i int) error {
					_, err := d.ReadPages(p, ftl.LBA(i%256), 1)
					return err
				})
			}},
		{Name: "device.flush", Counter: "device.flush_cmds", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				d := device.New(s.env, device.ULLSSD())
				return none(func(p *Proc, i int) error { return d.Flush(p) })
			}},
		// --- pcie ---
		{Name: "pcie.write64", Counter: "pcie.mmio_writes", N: 16384,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				w := pcie.NewWindow(s.env, pcie.DefaultConfig(), make([]byte, 1<<20))
				line := make([]byte, 64)
				return none(func(p *Proc, i int) error { return w.Write(p, i*64%(1<<20), line) })
			}},
		{Name: "pcie.write4k", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				w := pcie.NewWindow(s.env, pcie.DefaultConfig(), make([]byte, 1<<20))
				page := make([]byte, 4096)
				return none(func(p *Proc, i int) error { return w.Write(p, i*4096%(1<<20), page) })
			}},
		{Name: "pcie.sync", Counter: "pcie.syncs", N: 16384,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				w := pcie.NewWindow(s.env, pcie.DefaultConfig(), make([]byte, 1<<20))
				line := make([]byte, 64)
				return func(p *Proc, i int) error { return w.Sync(p, i*64%(1<<20), 64) },
					func(p *Proc, i int) error { return w.Write(p, i*64%(1<<20), line) }, nil
			}},
		{Name: "pcie.read64", Counter: "pcie.mmio_reads", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				w := pcie.NewWindow(s.env, pcie.DefaultConfig(), make([]byte, 1<<20))
				line := make([]byte, 64)
				return none(func(p *Proc, i int) error { return w.Read(p, i*64%(1<<20), line) })
			}},
		// --- core (the 2B-SSD), at the kv-ba geometry: one entry is a
		// quarter of the BA-buffer ---
		{Name: "core.ba_pin", Counter: "2bssd.pages_pinned", N: 8,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				pages := ssd.BufferPages() / 4
				return func(p *Proc, i int) error { return ssd.BAPin(p, 0, 0, ftl.LBA(i*pages), pages) },
					func(p *Proc, i int) error {
						if i == 0 {
							return nil
						}
						return ssd.BAFlush(p, 0)
					}, nil
			}},
		{Name: "core.ba_flush", Counter: "2bssd.pages_flushed", N: 8,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				pages := ssd.BufferPages() / 4
				return func(p *Proc, i int) error { return ssd.BAFlush(p, 0) },
					func(p *Proc, i int) error { return ssd.BAPin(p, 0, 0, ftl.LBA(i*pages), pages) }, nil
			}},
		{Name: "core.ba_sync", Counter: "2bssd.syncs", N: 8192,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				if err := ssd.BAPin(p, 0, 0, 0, 1); err != nil {
					return nil, nil, err
				}
				line := make([]byte, 64)
				return func(p *Proc, i int) error { return ssd.BASync(p, 0) },
					func(p *Proc, i int) error { return ssd.Mmio().Write(p, i*64%4096, line) }, nil
			}},
		{Name: "core.read_dma4k", Counter: "2bssd.dma_reads", N: 2048,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				if err := ssd.BAPin(p, 0, 0, 0, 1); err != nil {
					return nil, nil, err
				}
				buf := make([]byte, 4096)
				return none(func(p *Proc, i int) error {
					_, err := ssd.BAReadDMA(p, 0, buf)
					return err
				})
			}},
		// core.gate_check: a block read the LBA checker refuses after
		// walking a full mapping table — the checker's cost alone.
		{Name: "core.gate_check", Counter: "2bssd.gate_rejects", N: 16384,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				n := ssd.Config().MaxEntries
				for e := 0; e < n; e++ {
					if err := ssd.BAPin(p, core.EID(e), e*4096, ftl.LBA(e), 1); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error {
					_, err := ssd.Device().ReadPages(p, ftl.LBA(n-1), 1)
					if errors.Is(err, core.ErrPinnedRange) {
						return nil
					}
					return fmt.Errorf("pinned read was not gated: %v", err)
				})
			}},
		{Name: "core.power_loss", N: 3,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				return func(p *Proc, i int) error {
						_, err := ssd.PowerLoss(p)
						return err
					}, func(p *Proc, i int) error {
						if i == 0 {
							return ssd.BAPin(p, 0, 0, 0, ssd.BufferPages()/4)
						}
						return ssd.PowerOn(p)
					}, nil
			}},
		{Name: "core.power_on", N: 3,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				if err := ssd.BAPin(p, 0, 0, 0, ssd.BufferPages()/4); err != nil {
					return nil, nil, err
				}
				return func(p *Proc, i int) error { return ssd.PowerOn(p) },
					func(p *Proc, i int) error {
						_, err := ssd.PowerLoss(p)
						return err
					}, nil
			}},
		// --- vfs ---
		{Name: "vfs.write_at", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				f, err := vfs.New(device.New(s.env, device.ULLSSD())).Create("probe", 1<<20)
				if err != nil {
					return nil, nil, err
				}
				page := make([]byte, 4096)
				return none(func(p *Proc, i int) error { return f.WriteAt(p, int64(i%256)*4096, stampPage(page, uint64(i))) })
			}},
		{Name: "vfs.read_at", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				d := device.New(s.env, device.ULLSSD())
				f, err := vfs.New(d).Create("probe", 1<<20)
				if err != nil {
					return nil, nil, err
				}
				if err := f.WriteAt(p, 0, make([]byte, 1<<20)); err != nil {
					return nil, nil, err
				}
				if err := d.Drain(p); err != nil {
					return nil, nil, err
				}
				page := make([]byte, 4096)
				return none(func(p *Proc, i int) error { return f.ReadAt(p, int64(i%256)*4096, page) })
			}},
		{Name: "vfs.sync", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				f, err := vfs.New(device.New(s.env, device.ULLSSD())).Create("probe", 1<<20)
				if err != nil {
					return nil, nil, err
				}
				return none(func(p *Proc, i int) error { return f.Sync(p) })
			}},
		// --- wal, at the kv geometry: a 2 MB log, 281-byte records ---
		{Name: "wal.ba.commit", Counter: "wal.commits", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				l, err := openProbeLog(s, wal.BA, "probe")
				if err != nil {
					return nil, nil, err
				}
				return none(appendCommit(l))
			}},
		// No counter of its own: wal.commits counts both modes, and the
		// attribution picks the mode the run used.
		{Name: "wal.sync.commit", N: 4096,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				l, err := openProbeLog(s, wal.Sync, "probe")
				if err != nil {
					return nil, nil, err
				}
				return none(appendCommit(l))
			}},
		// wal.ba.switch: the first commit on a fresh log file, which
		// pins a BA-buffer quarter first — what a writer waits for when
		// the engine rotates its log.
		{Name: "wal.ba.switch", N: 8,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				ssd := core.New(s.env, core.DefaultConfig())
				fs := vfs.New(ssd.Device())
				var prev *wal.Log
				return func(p *Proc, i int) error {
						f, err := fs.Create(fmt.Sprintf("probe-%d", i), 2<<20)
						if err != nil {
							return err
						}
						l, err := wal.Open(s.env, wal.Config{
							Mode: wal.BA, File: f, SegmentBytes: 2 << 20, SSD: ssd,
							EIDs: []core.EID{core.EID(i % 4)}, BufferOffset: (i % 4) * (2 << 20),
						})
						if err != nil {
							return err
						}
						prev = l
						return appendCommit(l)(p, i)
					}, func(p *Proc, i int) error {
						if prev == nil {
							return nil
						}
						return prev.FlushToNAND(p)
					}, nil
			}},
		{Name: "wal.recover", N: 3,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				l, err := openProbeLog(s, wal.BA, "probe")
				if err != nil {
					return nil, nil, err
				}
				ac := appendCommit(l)
				for i := 0; i < 4096; i++ {
					if err := ac(p, i); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error {
					n := 0
					err := l.Recover(p, func(wal.LSN, []byte) error { n++; return nil })
					if err == nil && n != 4096 {
						err = fmt.Errorf("recovered %d of 4096 records", n)
					}
					return err
				})
			}},
		// --- lsm, on the kv-ba stack ---
		{Name: "lsm.put", N: 16384,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				k, err := OpenKV(s, p, KVBA)
				if err != nil {
					return nil, nil, err
				}
				val := make([]byte, probeValueBytes)
				return none(func(p *Proc, i int) error { return k.Put(p, probeKey(i%10000), val) })
			}},
		{Name: "lsm.get_mem", N: 16384,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				k, err := OpenKV(s, p, KVBA)
				if err != nil {
					return nil, nil, err
				}
				val := make([]byte, probeValueBytes)
				for i := 0; i < 2000; i++ {
					if err := k.Put(p, probeKey(i), val); err != nil {
						return nil, nil, err
					}
				}
				return none(func(p *Proc, i int) error { return mustGet(k, p, probeKey(i*31%2000)) })
			}},
		// lsm.get_sst reads a data set three times the block cache, all
		// of it flushed to SSTs, so most lookups go down to the device.
		{Name: "lsm.get_sst", N: 8192,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				k, err := OpenKV(s, p, KVBA)
				if err != nil {
					return nil, nil, err
				}
				val := make([]byte, probeValueBytes)
				for i := 0; i < 10000; i++ {
					if err := k.Put(p, probeKey(i), val); err != nil {
						return nil, nil, err
					}
				}
				if err := k.FlushAll(p); err != nil {
					return nil, nil, err
				}
				return none(func(p *Proc, i int) error { return mustGet(k, p, probeKey(i*7919%10000)) })
			}},
		// lsm.flush: one full memtable written out as an SST.
		{Name: "lsm.flush", N: 3,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				k, err := OpenKV(s, p, KVBA)
				if err != nil {
					return nil, nil, err
				}
				return func(p *Proc, i int) error { return k.FlushAll(p) },
					func(p *Proc, i int) error { return fillMemtable(k, p, i) }, nil
			}},
		// lsm.compaction: the fourth L0 table triggers a compaction in
		// the flush's wake; the call waits for it, polling every 20 µs.
		{Name: "lsm.compaction", N: 2,
			Build: func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
				k, err := OpenKV(s, p, KVBA)
				if err != nil {
					return nil, nil, err
				}
				done := 0.0
				return func(p *Proc, i int) error {
						for k.LSMCounts()["compactions"] == done {
							p.Sleep(20 * sim.Microsecond)
						}
						return nil
					}, func(p *Proc, i int) error {
						done = k.LSMCounts()["compactions"]
						for j := 0; j < 4; j++ {
							if err := fillMemtable(k, p, i*4+j); err != nil {
								return err
							}
							if err := k.FlushAll(p); err != nil {
								return err
							}
						}
						return nil
					}, nil
			}},
	}
}

func probeDeviceWrite(drainWorkers int) func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
	return func(s *Sim, p *Proc) (func(*Proc, int) error, func(*Proc, int) error, error) {
		prof := device.ULLSSD()
		if drainWorkers > 0 {
			prof.DrainWorkers = drainWorkers
		}
		d := device.New(s.env, prof)
		page := make([]byte, d.PageSize())
		return func(p *Proc, i int) error { return d.WritePages(p, ftl.LBA(i), stampPage(page, uint64(i))) }, nil, nil
	}
}

func openProbeLog(s *Sim, mode wal.CommitMode, name string) (*wal.Log, error) {
	ssd := core.New(s.env, core.DefaultConfig())
	f, err := vfs.New(ssd.Device()).Create(name, 2<<20)
	if err != nil {
		return nil, err
	}
	cfg := wal.Config{Mode: mode, File: f}
	if mode == wal.BA {
		cfg.SSD, cfg.EIDs, cfg.SegmentBytes = ssd, []core.EID{0}, 2<<20
	}
	return wal.Open(s.env, cfg)
}

func appendCommit(l *wal.Log) func(p *Proc, i int) error {
	rec := make([]byte, 5+probeKeyBytes+probeValueBytes)
	return func(p *Proc, i int) error {
		lsn, err := l.Append(p, stampPage(rec, uint64(i)))
		if err != nil {
			return err
		}
		return l.Commit(p, lsn)
	}
}

func mustGet(k *KV, p *Proc, key []byte) error {
	_, ok, err := k.Get(p, key)
	if err == nil && !ok {
		err = fmt.Errorf("key %s not found", key)
	}
	return err
}

// memtableRecords kv records (308 bytes each as the memtable counts
// them) stay just under the 1 MB that makes the engine rotate.
const memtableRecords = 3300

// fillMemtable puts just under one memtable of fresh keys.
func fillMemtable(k *KV, p *Proc, gen int) error {
	val := make([]byte, probeValueBytes)
	for i := 0; i < memtableRecords; i++ {
		if err := k.Put(p, probeKey(gen*memtableRecords+i), val); err != nil {
			return err
		}
	}
	return nil
}

// ---- sim kernel probes ----

// KernelProbe runs a bare-kernel scenario of n events and returns the
// number of events dispatched.
type KernelProbe struct {
	Name string
	Run  func(n int) (events uint64)
}

// KernelProbes exercise the scheduler alone: a lone sleeper (no
// goroutine switch), two procs that alternate (a direct handoff per
// event), four procs on one resource, and a message stream over a link
// between two partitions.
func KernelProbes() []KernelProbe {
	return []KernelProbe{
		{"sim.sleep", func(n int) uint64 {
			e := sim.NewEnv()
			e.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(10)
				}
			})
			e.Run()
			defer e.Shutdown()
			return e.Events()
		}},
		{"sim.handoff", func(n int) uint64 {
			e := sim.NewEnv()
			for c := 0; c < 2; c++ {
				c := c
				e.Go("pingpong", func(p *sim.Proc) {
					p.Sleep(sim.Duration(c))
					for i := 0; i < n/2; i++ {
						p.Sleep(2)
					}
				})
			}
			e.Run()
			defer e.Shutdown()
			return e.Events()
		}},
		{"sim.resource", func(n int) uint64 {
			e := sim.NewEnv()
			r := e.NewResource("probe", 1)
			for c := 0; c < 4; c++ {
				e.Go("user", func(p *sim.Proc) {
					for i := 0; i < n/4; i++ {
						r.Use(p, 5)
					}
				})
			}
			e.Run()
			defer e.Shutdown()
			return uint64(n) // one acquire+release per call, whatever events it took
		}},
		{"sim.link", func(n int) uint64 {
			g := sim.NewGroup()
			a, b := g.NewEnv("a"), g.NewEnv("b")
			l := sim.NewLink[int](g, a, b, "probe", 5*sim.Microsecond)
			a.Go("send", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					l.Send(p, i)
					p.Sleep(1 * sim.Microsecond)
				}
				l.Close(p)
			})
			b.Go("recv", func(p *sim.Proc) {
				for {
					if _, ok := l.Recv(p); !ok {
						return
					}
				}
			})
			g.Run()
			defer g.Shutdown()
			return uint64(n) // per message
		}},
	}
}
