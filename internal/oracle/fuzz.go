package oracle

import (
	"errors"
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// OpKind enumerates the generated operations.
type OpKind int

const (
	OpMmioWrite OpKind = iota
	OpMmioRead
	OpMmioSync
	OpPin
	OpFlush
	OpBlockWrite
	OpBlockRead
	OpReadDMA
	OpPowerCycle
	OpScrub
	OpDrain
)

func (k OpKind) String() string {
	switch k {
	case OpMmioWrite:
		return "mmio_write"
	case OpMmioRead:
		return "mmio_read"
	case OpMmioSync:
		return "mmio_sync"
	case OpPin:
		return "pin"
	case OpFlush:
		return "flush"
	case OpBlockWrite:
		return "block_write"
	case OpBlockRead:
		return "block_read"
	case OpReadDMA:
		return "read_dma"
	case OpPowerCycle:
		return "power_cycle"
	case OpScrub:
		return "scrub"
	case OpDrain:
		return "drain"
	}
	return fmt.Sprintf("op_%d", int(k))
}

// Op is one self-contained generated operation: every parameter is
// concrete, so any subsequence of a trace replays deterministically —
// the property the shrinker depends on.
type Op struct {
	Kind  OpKind
	EID   core.EID
	Off   int     // BA-buffer byte offset (mmio/pin)
	LBA   ftl.LBA // block address (pin / block I/O)
	Pages int     // length in pages (pin / block I/O)
	Len   int     // length in bytes (mmio / dma)
	Seed  uint64  // data-pattern seed for writes
}

func (o Op) String() string {
	switch o.Kind {
	case OpMmioWrite:
		return fmt.Sprintf("mmio_write off=%d len=%d seed=%x", o.Off, o.Len, o.Seed)
	case OpMmioRead, OpMmioSync:
		return fmt.Sprintf("%s off=%d len=%d", o.Kind, o.Off, o.Len)
	case OpPin:
		return fmt.Sprintf("pin eid=%d off=%d lba=%d pages=%d", o.EID, o.Off, o.LBA, o.Pages)
	case OpFlush:
		return fmt.Sprintf("flush eid=%d", o.EID)
	case OpBlockWrite:
		return fmt.Sprintf("block_write lba=%d pages=%d seed=%x", o.LBA, o.Pages, o.Seed)
	case OpBlockRead:
		return fmt.Sprintf("block_read lba=%d pages=%d", o.LBA, o.Pages)
	case OpReadDMA:
		return fmt.Sprintf("read_dma eid=%d len=%d", o.EID, o.Len)
	}
	return o.Kind.String()
}

// Divergence is one observed difference between stack and model.
type Divergence struct {
	Seed    uint64
	OpIndex int    // -1: found by the final-state sweep, not an op
	Op      string // the diverging op (or final-check name)
	Detail  string
}

func (d *Divergence) String() string {
	if d == nil {
		return "<none>"
	}
	return fmt.Sprintf("seed %d op %d (%s): %s", d.Seed, d.OpIndex, d.Op, d.Detail)
}

// Config tunes one fuzz run.
type Config struct {
	Ops     int // generated operations per seed (default 80)
	LBASpan int // logical pages the workload churns (default 96)
	// BuggyChecker runs the reference model with its off-by-one
	// LBA-checker miswiring — the oracle self-test.
	BuggyChecker bool
	// GCActive runs the trace on a 16-blocks/die drive whose span
	// (default 1380 pages, 90 % of it) is filled and then overwritten
	// into steady-state garbage collection before the first op, with
	// three times the ops (default 240) and more of them block writes,
	// half on the first 96 LBAs: same-LBA overwrites through four drain
	// workers while relocation runs, pins, flushes, scrubs and power
	// cycles go on. Without it the drive never collects.
	GCActive bool
}

// hotSpan is the default LBA span; a GCActive trace keeps its pins and
// half of its block traffic on it.
const hotSpan = 96

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 80
		if c.GCActive {
			c.Ops = 240
		}
	}
	if c.LBASpan <= 0 {
		c.LBASpan = hotSpan
		if c.GCActive {
			c.LBASpan = 1380
		}
	}
	return c
}

// Result is the outcome of one seed.
type Result struct {
	Seed         uint64
	Ops          int // operations executed (including the diverging one)
	Divergence   *Divergence
	ScrubRepairs uint64
	EccRetries   uint64
	// GCRelocations counts the valid pages garbage collection moved: how
	// much of the run had relocation under it (0 unless GCActive).
	GCRelocations uint64

	// Flight is the flight-recorder dump captured when the seed
	// diverged: the last spans before the diverging op, plus the
	// stack's metrics at that moment.
	Flight *obs.FlightDump
}

// splitmix64 mirrors the fault injector's per-stream PRNG.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillPattern writes a deterministic byte pattern derived from seed.
func fillPattern(dst []byte, seed uint64) {
	r := rng{s: seed}
	var w uint64
	for i := range dst {
		if i%8 == 0 {
			w = r.next()
		}
		dst[i] = byte(w >> (8 * (i % 8)))
	}
}

// stackConfig returns the scaled-down 2B-SSD the fuzzer drives: a
// 4-die NAND array and a 64-page BA-buffer — small enough that pins,
// flushes and block I/O collide constantly, which is the point.
func stackConfig(gcActive bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	if gcActive {
		cfg.Base.Nand.BlocksPerDie = 16
	}
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 64 * 4096
	return cfg
}

// fuzzPlan returns the per-seed fault plan: a flat BER high enough
// that every NAND read needs exactly one correctable ECC retry (the
// scrubber's repair path runs constantly, uncorrectables never), and
// on some seeds a capacitor cut that tears every recovery dump — the
// model must then predict the all-or-nothing empty restore.
func fuzzPlan(seed uint64) fault.Plan {
	plan := fault.Plan{
		Seed: seed ^ 0x2B55D2B55D2B55D,
		BER: &fault.BERModel{
			Base:         1.28e-3, // lambda ≈ 42 bits > ECC 40 → 1 retry
			ECCBits:      40,
			RetrySteps:   4,
			RetryLatency: 60 * sim.Microsecond,
		},
	}
	if seed%5 == 3 {
		plan.CutDumpAfterPages = 1 + int(seed%40)
	}
	return plan
}

// Generate derives the deterministic op trace for one seed.
func Generate(seed uint64, cfg Config) []Op {
	cfg = cfg.withDefaults()
	sc := stackConfig(cfg.GCActive)
	ps := sc.Base.Nand.PageSize
	bufPages := sc.BABufferBytes / ps
	r := rng{s: seed*0x9E3779B97F4A7C15 + 1}
	// blockLBA draws a block-I/O address: anywhere on the span, or —
	// every other draw of a GCActive trace — on its hot head.
	blockLBA := func() ftl.LBA {
		if cfg.GCActive && r.intn(2) == 0 {
			return ftl.LBA(r.intn(hotSpan))
		}
		return ftl.LBA(r.intn(cfg.LBASpan))
	}
	ops := make([]Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		var o Op
		w := r.intn(100)
		if cfg.GCActive && w < 20 && r.intn(2) == 0 {
			w = 60 // half the MMIO writes become block writes
		}
		switch {
		case w < 20: // mmio write
			o = Op{Kind: OpMmioWrite, Off: r.intn(sc.BABufferBytes), Len: 1 + r.intn(700), Seed: r.next()}
			if o.Off+o.Len > sc.BABufferBytes && r.intn(4) != 0 {
				o.Len = sc.BABufferBytes - o.Off // mostly in range; sometimes out-of-window
			}
		case w < 28: // mmio read
			o = Op{Kind: OpMmioRead, Off: r.intn(sc.BABufferBytes), Len: 1 + r.intn(700)}
			if o.Off+o.Len > sc.BABufferBytes && r.intn(4) != 0 {
				o.Len = sc.BABufferBytes - o.Off
			}
		case w < 36: // mmio sync
			o = Op{Kind: OpMmioSync, Off: 0, Len: sc.BABufferBytes}
		case w < 48: // pin
			o = Op{
				Kind:  OpPin,
				EID:   core.EID(r.intn(sc.MaxEntries + 1)), // +1: sometimes a bad EID
				Off:   r.intn(bufPages) * ps,
				LBA:   ftl.LBA(r.intn(min(cfg.LBASpan, hotSpan))),
				Pages: 1 + r.intn(4),
			}
			if r.intn(10) == 0 {
				o.Off++ // unaligned
			}
			if r.intn(16) == 0 {
				o.Off = sc.BABufferBytes // out of buffer
			}
		case w < 60: // flush
			o = Op{Kind: OpFlush, EID: core.EID(r.intn(sc.MaxEntries + 1))}
		case w < 75: // block write
			o = Op{Kind: OpBlockWrite, LBA: blockLBA(), Pages: 1 + r.intn(4), Seed: r.next()}
		case w < 87: // block read
			o = Op{Kind: OpBlockRead, LBA: blockLBA(), Pages: 1 + r.intn(4)}
		case w < 92: // read dma
			o = Op{Kind: OpReadDMA, EID: core.EID(r.intn(sc.MaxEntries)), Len: 1 + r.intn(4*ps)}
		case w < 95:
			o = Op{Kind: OpPowerCycle}
		case w < 98:
			o = Op{Kind: OpScrub}
		default:
			o = Op{Kind: OpDrain}
		}
		ops = append(ops, o)
	}
	return ops
}

// Run generates the trace for one seed and replays it against a fresh
// stack + model, returning the first divergence (if any) plus fault
// and scrub counters.
func Run(seed uint64, cfg Config) Result {
	cfg = cfg.withDefaults()
	return Replay(seed, cfg, Generate(seed, cfg))
}

// Replay executes an explicit op sequence for a seed on a fresh sim
// Env, stack and model — the entry point the shrinker re-invokes with
// candidate subsequences.
func Replay(seed uint64, cfg Config, ops []Op) Result {
	cfg = cfg.withDefaults()
	env := sim.NewEnv()
	in := fault.Install(env, fuzzPlan(seed))
	set := obs.Of(env)
	set.EnableFlightRecorder(0)
	sc := stackConfig(cfg.GCActive)
	s := core.New(env, sc)
	m := NewModel(ModelConfig{
		PageSize:       s.PageSize(),
		BufBytes:       sc.BABufferBytes,
		MaxEntries:     sc.MaxEntries,
		Pages:          s.Device().Pages(),
		WCBurstBytes:   sc.MMIO.WCBurstBytes,
		WCBufferBursts: sc.MMIO.WCBufferBursts,
	})
	m.BuggyChecker = cfg.BuggyChecker

	res := Result{Seed: seed}
	env.Go("oracle.fuzz", func(p *sim.Proc) {
		if cfg.GCActive {
			if d := precondition(p, s, m, seed, cfg.LBASpan); d != nil {
				d.Seed, d.OpIndex = seed, -1
				res.Divergence = d
				return
			}
		}
		for i, o := range ops {
			res.Ops = i + 1
			if d := execOp(p, s, m, o); d != nil {
				d.Seed, d.OpIndex, d.Op = seed, i, o.String()
				res.Divergence = d
				return
			}
		}
		if d := finalCheck(p, s, m, cfg); d != nil {
			d.Seed, d.OpIndex = seed, -1
			res.Divergence = d
		}
	})
	env.Run()
	_ = in
	res.ScrubRepairs = s.ScrubStats().Repaired
	res.GCRelocations = s.Device().FTL().Stats().GCRelocations
	res.EccRetries = set.Registry().Counter("fault.ecc_retries").Value()
	if res.Divergence != nil {
		d := set.FlightDump("oracle divergence: " + res.Divergence.String())
		res.Flight = &d
	}
	return res
}

// precondition brings a GCActive drive to steady-state collection
// before the trace starts: the span is written once, front to back, and
// then a third of it again in scattered four-page writes, on stack and
// model alike. What the relocations of that phase did to the data is
// checked by every read that follows.
func precondition(p *sim.Proc, s *core.TwoBSSD, m *Model, seed uint64, span int) *Divergence {
	const burst = 64
	if uint64(span) > s.Device().Pages() {
		return &Divergence{Op: "precondition", Detail: fmt.Sprintf("span %d exceeds the drive's %d pages", span, s.Device().Pages())}
	}
	r := rng{s: seed ^ 0x6C0FFEE}
	data := make([]byte, burst*s.PageSize())
	write := func(lba, pages int) *Divergence {
		buf := data[:pages*s.PageSize()]
		fillPattern(buf, r.next())
		if d := wantErr(s.Device().WritePages(p, ftl.LBA(lba), buf), m.BlockWrite(ftl.LBA(lba), buf)); d != nil {
			d.Op = "precondition"
			return d
		}
		return nil
	}
	for lba := 0; lba < span; lba += burst {
		if d := write(lba, min(burst, span-lba)); d != nil {
			return d
		}
	}
	for i := 0; i < span/12; i++ {
		if d := write(r.intn(span-4), 4); d != nil {
			return d
		}
	}
	return nil
}

// wantErr verifies the real error against the model's sentinel.
func wantErr(real, want error) *Divergence {
	switch {
	case want == nil && real == nil:
		return nil
	case want == nil:
		return &Divergence{Detail: fmt.Sprintf("stack errored, model did not: %v", real)}
	case real == nil:
		return &Divergence{Detail: fmt.Sprintf("model predicts %v, stack succeeded", want)}
	case !errors.Is(real, want):
		return &Divergence{Detail: fmt.Sprintf("error class mismatch: stack %v, model %v", real, want)}
	}
	return nil
}

// execOp runs one operation on both stack and model and compares.
func execOp(p *sim.Proc, s *core.TwoBSSD, m *Model, o Op) *Divergence {
	switch o.Kind {
	case OpMmioWrite:
		data := make([]byte, o.Len)
		fillPattern(data, o.Seed)
		return wantErr(s.Mmio().Write(p, o.Off, data), m.MmioWrite(o.Off, data))
	case OpMmioRead:
		buf := make([]byte, o.Len)
		rerr := s.Mmio().Read(p, o.Off, buf)
		want, werr := m.MmioRead(o.Off, o.Len)
		if d := wantErr(rerr, werr); d != nil {
			return d
		}
		if werr == nil {
			if diff := diffBytes(want, buf); diff != "" {
				return &Divergence{Detail: "mmio read content: " + diff}
			}
		}
		return nil
	case OpMmioSync:
		return wantErr(s.Mmio().Sync(p, o.Off, o.Len), m.MmioSync(o.Off, o.Len))
	case OpPin:
		return wantErr(s.BAPin(p, o.EID, o.Off, o.LBA, o.Pages), m.Pin(o.EID, o.Off, o.LBA, o.Pages))
	case OpFlush:
		return wantErr(s.BAFlush(p, o.EID), m.Flush(o.EID))
	case OpBlockWrite:
		data := make([]byte, o.Pages*s.PageSize())
		fillPattern(data, o.Seed)
		return wantErr(s.Device().WritePages(p, o.LBA, data), m.BlockWrite(o.LBA, data))
	case OpBlockRead:
		got, rerr := s.Device().ReadPages(p, o.LBA, o.Pages)
		want, werr := m.BlockRead(o.LBA, o.Pages)
		if d := wantErr(rerr, werr); d != nil {
			return d
		}
		if werr == nil {
			if diff := diffBytes(want, got); diff != "" {
				return &Divergence{Detail: "block read content: " + diff}
			}
		}
		return nil
	case OpReadDMA:
		dst := make([]byte, o.Len)
		n, rerr := s.BAReadDMA(p, o.EID, dst)
		want, werr := m.ReadDMA(o.EID, o.Len)
		if d := wantErr(rerr, werr); d != nil {
			return d
		}
		if werr == nil {
			if n != len(want) {
				return &Divergence{Detail: fmt.Sprintf("dma length: stack %d, model %d", n, len(want))}
			}
			if diff := diffBytes(want, dst[:n]); diff != "" {
				return &Divergence{Detail: "dma content: " + diff}
			}
		}
		return nil
	case OpPowerCycle:
		return powerCycle(p, s, m)
	case OpScrub:
		// Patrol reads must be content-neutral: the model does nothing.
		if err := s.ScrubPass(p); err != nil {
			return &Divergence{Detail: fmt.Sprintf("scrub pass failed: %v", err)}
		}
		return nil
	case OpDrain:
		if err := s.Device().Drain(p); err != nil {
			return &Divergence{Detail: fmt.Sprintf("drain failed: %v", err)}
		}
		return nil
	}
	return &Divergence{Detail: "unknown op kind"}
}

// powerCycle cuts power and brings the device back, feeding the real
// stack's persisted verdict into the model (torn dumps are a planned
// fault on some seeds; the model's job is predicting the consequences,
// not the capacitor physics).
func powerCycle(p *sim.Proc, s *core.TwoBSSD, m *Model) *Divergence {
	rep, lerr := s.PowerLoss(p)
	if lerr != nil && !errors.Is(lerr, core.ErrDumpTorn) && !errors.Is(lerr, core.ErrInsufficient) {
		return &Divergence{Detail: fmt.Sprintf("power loss failed: %v", lerr)}
	}
	if (lerr == nil) != rep.Persisted {
		return &Divergence{Detail: fmt.Sprintf("dump report inconsistent: persisted=%v err=%v", rep.Persisted, lerr)}
	}
	lost := m.PowerCut(rep.Persisted)
	if lost != rep.LostWCBursts {
		return &Divergence{Detail: fmt.Sprintf("lost WC bursts: stack %d, model %d", rep.LostWCBursts, lost)}
	}
	if err := s.PowerOn(p); err != nil {
		return &Divergence{Detail: fmt.Sprintf("power on failed: %v", err)}
	}
	m.PowerOn()
	return compareEntries(s, m, "post-recovery")
}

// compareEntries checks the live mapping tables agree.
func compareEntries(s *core.TwoBSSD, m *Model, when string) *Divergence {
	se, me := s.Entries(), m.Entries()
	if len(se) != len(me) {
		return &Divergence{Op: when + " entries", Detail: fmt.Sprintf("stack has %d entries, model %d", len(se), len(me))}
	}
	for i := range se {
		if se[i] != me[i] {
			return &Divergence{Op: when + " entries", Detail: fmt.Sprintf("entry %d: stack %+v, model %+v", i, se[i], me[i])}
		}
	}
	return nil
}

// finalCheck sweeps the full observable state — committed BA-buffer,
// mapping table, per-entry DMA, every block page in the span — then
// power-cycles once more and sweeps again, verifying the complete
// post-recovery state against the model.
func finalCheck(p *sim.Proc, s *core.TwoBSSD, m *Model, cfg Config) *Divergence {
	sweep := func(when string) *Divergence {
		if d := compareEntries(s, m, when); d != nil {
			return d
		}
		buf := make([]byte, m.cfg.BufBytes)
		rerr := s.Mmio().Read(p, 0, buf)
		want, werr := m.MmioRead(0, m.cfg.BufBytes)
		if rerr != nil || werr != nil {
			return &Divergence{Op: when + " buffer", Detail: fmt.Sprintf("buffer read: stack %v, model %v", rerr, werr)}
		}
		if diff := diffBytes(want, buf); diff != "" {
			return &Divergence{Op: when + " buffer", Detail: diff}
		}
		for _, e := range m.Entries() {
			dst := make([]byte, e.Pages*m.cfg.PageSize)
			n, rerr := s.BAReadDMA(p, e.ID, dst)
			wantD, werr := m.ReadDMA(e.ID, len(dst))
			if rerr != nil || werr != nil || n != len(wantD) {
				return &Divergence{Op: when + " dma", Detail: fmt.Sprintf("eid %d: stack n=%d err=%v, model n=%d err=%v", e.ID, n, rerr, len(wantD), werr)}
			}
			if diff := diffBytes(wantD, dst[:n]); diff != "" {
				return &Divergence{Op: when + " dma", Detail: fmt.Sprintf("eid %d: %s", e.ID, diff)}
			}
		}
		for lba := 0; lba < cfg.LBASpan; lba++ {
			got, rerr := s.Device().ReadPages(p, ftl.LBA(lba), 1)
			want, werr := m.BlockRead(ftl.LBA(lba), 1)
			if d := wantErr(rerr, werr); d != nil {
				d.Op = fmt.Sprintf("%s block lba=%d", when, lba)
				return d
			}
			if werr == nil {
				if diff := diffBytes(want, got); diff != "" {
					return &Divergence{Op: fmt.Sprintf("%s block lba=%d", when, lba), Detail: diff}
				}
			}
		}
		return nil
	}
	if d := sweep("final"); d != nil {
		return d
	}
	if d := powerCycle(p, s, m); d != nil {
		d.Op = "final power-cycle: " + d.Op
		return d
	}
	return sweep("recovered")
}
