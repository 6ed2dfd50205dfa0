// Package twobssd is the public API of the 2B-SSD reproduction: a
// dual, byte- and block-addressable solid-state drive (Bae et al.,
// ISCA 2018) and the simulated storage stack it runs on.
//
// The package re-exports the stable surface of the internal packages
// so downstream code can build against one import:
//
//	env := twobssd.NewEnv()
//	ssd := twobssd.New(env, twobssd.DefaultConfig())
//	fs := twobssd.NewFS(ssd.Device())
//
//	env.Go("app", func(p *twobssd.Proc) {
//	    f, _ := fs.Create("wal.log", 16<<20)
//	    ssd.BAPin(p, 0, 0, f.LBA(0), 4)      // bind file pages to the BA-buffer
//	    ssd.Mmio().Write(p, 0, []byte("log")) // 630ns-class MMIO store
//	    ssd.BASync(p, 0)                      // clflush+mfence+write-verify read
//	    ssd.BAFlush(p, 0)                     // internal datapath to NAND
//	})
//	env.Run()
//
// Everything runs in deterministic virtual time: the same program
// yields the same nanosecond-exact results on every machine. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package twobssd

import (
	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// Simulation kernel.
type (
	// Env is the discrete-event simulation environment: a virtual clock
	// plus the processes and resources scheduled on it.
	Env = sim.Env
	// Proc is one simulation process; every timed operation takes one.
	Proc = sim.Proc
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
	// Time is an absolute virtual timestamp.
	Time = sim.Time
)

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEnv creates a simulation environment with the clock at zero.
func NewEnv() *Env { return sim.NewEnv() }

// The 2B-SSD and its configuration.
type (
	// SSD is the dual byte-/block-addressable drive (the paper's
	// contribution): BA_PIN/BA_FLUSH/BA_SYNC/BA_GET_ENTRY_INFO/
	// BA_READ_DMA, the LBA checker, the read DMA engine, and the
	// capacitor-backed recovery manager.
	SSD = core.TwoBSSD
	// Config assembles an SSD (device profile, BA-buffer geometry,
	// MMIO model, capacitors).
	Config = core.Config
	// Spec mirrors Table I of the paper.
	Spec = core.Spec
	// EID names a BA-buffer mapping-table entry.
	EID = core.EID
	// Entry is one mapping-table row.
	Entry = core.Entry
	// DumpReport describes one power-loss event.
	DumpReport = core.DumpReport
)

// New builds a 2B-SSD on the environment.
func New(env *Env, cfg Config) *SSD { return core.New(env, cfg) }

// DefaultConfig returns the calibrated Table I prototype (8 MB
// BA-buffer, 8 entries, ULL-SSD base device, 3x270 µF capacitors).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultSpec returns the paper's Table I values.
func DefaultSpec() Spec { return core.DefaultSpec() }

// Block devices and the comparison profiles.
type (
	// Device is a simulated NVMe block SSD.
	Device = device.Device
	// DeviceProfile calibrates one device model.
	DeviceProfile = device.Profile
	// LBA is a logical page address.
	LBA = ftl.LBA
)

// NewDevice builds a standalone block device from a profile.
func NewDevice(env *Env, p DeviceProfile) *Device { return device.New(env, p) }

// DCSSD returns the datacenter-class comparison profile (PM963-like).
func DCSSD() DeviceProfile { return device.DCSSD() }

// ULLSSD returns the ultra-low-latency comparison profile (Z-SSD-like).
func ULLSSD() DeviceProfile { return device.ULLSSD() }

// File layer.
type (
	// FS is a flat namespace of contiguous files on a block device.
	FS = vfs.FS
	// File is one contiguous file; its byte ranges map 1:1 onto LBA
	// ranges, which is what BA_PIN consumes.
	File = vfs.File
)

// NewFS formats an empty filesystem over a device.
func NewFS(d *Device) *FS { return vfs.New(d) }

// Write-ahead logging (the paper's case study).
type (
	// WAL is a write-ahead log with the paper's commit modes. It owns
	// its segment files: WALConfig{File} is a single log file,
	// WALConfig{FS, Name, Ring, SegmentFileBytes} a ring of segment
	// files with rotation, Checkpoint truncation, tail readers (Tail)
	// and torn-tail repair on Recover.
	WAL = wal.Log
	// WALConfig assembles a log: commit mode, geometry, and its
	// placement on the 2B-SSD (SSD, EIDs, BufferOffset, SegmentBytes).
	// The entries given decide the buffer halves used: two EIDs
	// double-buffer, one is a single pinned window.
	WALConfig = wal.Config
	// CommitMode selects the durability protocol of Fig 5.
	CommitMode = wal.CommitMode
	// LSN is a log sequence number.
	LSN = wal.LSN
)

// The commit modes: Fig 5's three, plus the Fig 10 heterogeneous-memory
// PM mode and the Section VII PMR comparison mode.
const (
	SyncCommit  = wal.Sync
	AsyncCommit = wal.Async
	BACommit    = wal.BA
	PMCommit    = wal.PM
	PMRCommit   = wal.PMR
)

// OpenWAL opens a write-ahead log.
func OpenWAL(env *Env, cfg WALConfig) (*WAL, error) { return wal.Open(env, cfg) }

// Observability.
type (
	// Observability is one environment's metrics registry plus (when
	// enabled) its virtual-time span tracer.
	Observability = obs.Set
	// MetricsRegistry holds named counters, gauges and latency
	// histograms; every stack component registers its series here.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a stable JSON/text-serializable registry view.
	MetricsSnapshot = obs.Snapshot
	// Tracer records virtual-time spans and exports Chrome trace-event
	// JSON (Perfetto). A nil *Tracer is the zero-overhead disabled path.
	Tracer = obs.Tracer
	// ObsCollector aggregates metrics, traces and timelines across
	// environments.
	ObsCollector = obs.Collector
	// Sampler snapshots a registry at a fixed virtual-time cadence into
	// ring-buffered, delta-encoded timeline windows (Observe(env).
	// StartSampler).
	Sampler = obs.Sampler
	// Timeline is the exported metric timeline: per-window counter
	// rates, sampled gauges and windowed histogram percentiles, merged
	// deterministically across environments.
	Timeline = obs.Timeline
	// TimelinePoint is one timeline window.
	TimelinePoint = obs.TimelinePoint
	// FlightDump is the post-mortem artifact of the always-on flight
	// recorder: the last spans before a failure plus metrics at that
	// moment (Observe(env).EnableFlightRecorder / FlightDump).
	FlightDump = obs.FlightDump
	// LiveServer serves a running simulation over HTTP: Prometheus
	// text exposition, timeline JSON, and SSE progress.
	LiveServer = obs.LiveServer
)

// Observe returns the environment's observability set. Metrics are
// always live; call EnableTracing on the result (before building the
// stack) to record spans:
//
//	o := twobssd.Observe(env)
//	o.EnableTracing()
//	ssd := twobssd.New(env, twobssd.DefaultConfig())
//	// ... run workload ...
//	o.Snapshot().WriteText(os.Stdout)
//	o.Tracer().WriteJSON(traceFile)
func Observe(env *Env) *Observability { return obs.Of(env) }

// NewObsCollector returns a collector that, once Install()ed, captures
// every environment the process subsequently creates — how bench2b's
// -metrics/-trace/-timeline flags observe experiments that build many
// environments internally. Call EnableSampling before Install to also
// record metric timelines.
func NewObsCollector(tracing bool) *ObsCollector { return obs.NewCollector(tracing) }

// NewLiveServer returns an HTTP serving layer for live observability;
// Attach it to a collector and mount Handler() — what bench2b -listen
// does.
func NewLiveServer() *LiveServer { return obs.NewLiveServer() }
