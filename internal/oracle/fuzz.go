package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
	OpDrain
	OpDeallocate
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
	case OpDrain:
		return "drain"
	case OpDeallocate:
		return "deallocate"
	}
	return fmt.Sprintf("op_%d", int(k))
}

// Op is one self-contained generated operation: every parameter is
// concrete, so any subsequence of a trace replays deterministically —
// the property the shrinker depends on. A seed's trace is its point's
// choice list.
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
	case OpBlockRead, OpDeallocate:
		return fmt.Sprintf("%s lba=%d pages=%d", o.Kind, o.LBA, o.Pages)
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

// Config tunes one fuzz run. A trace is 80 operations over hotSpan
// logical pages.
type Config struct {
	// BuggyChecker runs the reference model with its off-by-one
	// LBA-checker miswiring — the oracle self-test.
	BuggyChecker bool
	// GCActive runs the trace on a 16-blocks/die drive whose span
	// (1380 pages, 90 % of it) is filled and then overwritten into
	// steady-state garbage collection before the first op, with three
	// times the ops (240) and more of them block writes, half on the
	// first 96 LBAs: same-LBA overwrites through four drain workers
	// while relocation runs, pins, flushes and power cycles go
	// on. Without it the drive never collects.
	GCActive bool
}

// hotSpan is the LBA span of a trace without GCActive; a GCActive trace
// keeps its pins and half of its block traffic on it.
const hotSpan = 96

// ops is the trace length of the profile.
func (c Config) ops() int {
	if c.GCActive {
		return 240
	}
	return 80
}

// lbaSpan is the logical pages the profile's workload churns.
func (c Config) lbaSpan() int {
	if c.GCActive {
		return 1380
	}
	return hotSpan
}

// Result is the outcome of one seed.
type Result struct {
	Ops        int // operations executed (including the diverging one)
	Divergence *Divergence
	// GCRelocations counts the valid pages garbage collection moved: how
	// much of the run had relocation under it (0 unless GCActive).
	GCRelocations uint64
}

// Violation reports a divergence.
func (r Result) Violation() bool { return r.Divergence != nil }

// Verdict is the divergence.
func (r Result) Verdict() string { return r.Divergence.String() }

// FailedAt is the diverging op's index, or -1 (no divergence, or one
// the final-state sweep found).
func (r Result) FailedAt() int {
	if r.Divergence == nil {
		return -1
	}
	return r.Divergence.OpIndex
}

// Point, Report and Sweep are the engine's types for the fuzz kind.
type (
	Point  = fault.Point[Op]
	Report = fault.Report[Op, Result]
	Sweep  = fault.Campaign[Op, Result]
)

// Campaign returns the fuzz campaign of a profile: seeds 0..seeds-1,
// each a point whose choices are the seed's generated trace, checked
// against a fresh stack and model.
func Campaign(cfg Config, seeds int) *Sweep {
	return &Sweep{
		Points: func() ([]Point, error) {
			pts := make([]Point, seeds)
			for i := range pts {
				pts[i] = NewPoint(uint64(i), cfg)
			}
			return pts, nil
		},
		Check:   func(env *sim.Env, pt Point) (Result, error) { return check(env, pt, cfg), nil },
		Summary: func(w io.Writer, rep *Report) error { return summary(w, rep, cfg) },
	}
}

// NewPoint is seed's point: its generated trace and its fault plan.
func NewPoint(seed uint64, cfg Config) Point {
	return Point{Index: int(seed), Seed: seed, Choices: Generate(seed, cfg), Plan: fuzzPlan(seed)}
}

// summary writes the fuzz report's own lines: one table per profile.
func summary(w io.Writer, rep *Report, cfg Config) error {
	var ops int
	var relocated uint64
	for _, f := range rep.Findings {
		ops += f.Result.Ops
		relocated += f.Result.GCRelocations
	}
	profile := ""
	if cfg.GCActive {
		profile = "drive in steady-state GC, "
	}
	if _, err := fmt.Fprintf(w, "== fuzz: dual-path oracle, %s%d seeds ==\n", profile, len(rep.Findings)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %d\n%-24s %d\n%-24s %d\n",
		"seeds run", len(rep.Findings),
		"ops executed", ops,
		"divergences", len(rep.Violations())); err != nil {
		return err
	}
	if cfg.GCActive {
		_, err := fmt.Fprintf(w, "%-24s %d\n", "gc relocations", relocated)
		return err
	}
	return nil
}

// fillPattern writes a deterministic byte pattern derived from seed:
// one PRNG word per 8 bytes, little-endian, the last word cut short.
func fillPattern(dst []byte, seed uint64) {
	r := sim.NewRand(seed)
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, r.Uint64())
		dst = dst[8:]
	}
	if len(dst) > 0 {
		w := r.Uint64()
		for i := range dst {
			dst[i] = byte(w >> (8 * i))
		}
	}
}

// stackConfig returns the 2B-SSD the fuzzer drives: core.SmallConfig
// with a 64-page BA-buffer — small enough that pins, flushes and block
// I/O collide constantly, which is the point — and, for the GC profile,
// 16 blocks per die.
func stackConfig(gcActive bool) core.Config {
	cfg := core.SmallConfig()
	if gcActive {
		cfg.Base.Nand.BlocksPerDie = 16
	}
	cfg.BABufferBytes = 64 * 4096
	return cfg
}

// fuzzPlan returns the per-seed fault plan: on some seeds a capacitor
// cut that tears every recovery dump — the model must then predict the
// all-or-nothing empty restore.
func fuzzPlan(seed uint64) fault.Plan {
	var plan fault.Plan
	if seed%5 == 3 {
		plan.CutDumpAfterPages = 1 + int(seed%40)
	}
	return plan
}

// Generate derives the deterministic op trace for one seed.
func Generate(seed uint64, cfg Config) []Op {
	sc := stackConfig(cfg.GCActive)
	ps := sc.Base.Nand.PageSize
	bufPages := sc.BABufferBytes / ps
	r := sim.NewRand(seed*0x9E3779B97F4A7C15 + 1)
	// blockLBA draws a block-I/O address: anywhere on the span, or —
	// every other draw of a GCActive trace — on its hot head.
	blockLBA := func() ftl.LBA {
		if cfg.GCActive && r.Intn(2) == 0 {
			return ftl.LBA(r.Intn(hotSpan))
		}
		return ftl.LBA(r.Intn(cfg.lbaSpan()))
	}
	n := cfg.ops()
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var o Op
		w := r.Intn(100)
		if cfg.GCActive && w < 20 && r.Intn(2) == 0 {
			w = 60 // half the MMIO writes become block writes
		}
		switch {
		case w < 20: // mmio write
			o = Op{Kind: OpMmioWrite, Off: r.Intn(sc.BABufferBytes), Len: 1 + r.Intn(700), Seed: r.Uint64()}
			if o.Off+o.Len > sc.BABufferBytes && r.Intn(4) != 0 {
				o.Len = sc.BABufferBytes - o.Off // mostly in range; sometimes out-of-window
			}
		case w < 28: // mmio read
			o = Op{Kind: OpMmioRead, Off: r.Intn(sc.BABufferBytes), Len: 1 + r.Intn(700)}
			if o.Off+o.Len > sc.BABufferBytes && r.Intn(4) != 0 {
				o.Len = sc.BABufferBytes - o.Off
			}
		case w < 36: // mmio sync
			o = Op{Kind: OpMmioSync, Off: 0, Len: sc.BABufferBytes}
		case w < 48: // pin
			o = Op{
				Kind:  OpPin,
				EID:   core.EID(r.Intn(sc.MaxEntries + 1)), // +1: sometimes a bad EID
				Off:   r.Intn(bufPages) * ps,
				LBA:   ftl.LBA(r.Intn(hotSpan)),
				Pages: 1 + r.Intn(4),
			}
			if r.Intn(10) == 0 {
				o.Off++ // unaligned
			}
			if r.Intn(16) == 0 {
				o.Off = sc.BABufferBytes // out of buffer
			}
		case w < 60: // flush
			o = Op{Kind: OpFlush, EID: core.EID(r.Intn(sc.MaxEntries + 1))}
		case w < 73: // block write
			o = Op{Kind: OpBlockWrite, LBA: blockLBA(), Pages: 1 + r.Intn(4), Seed: r.Uint64()}
		case w < 75: // deallocate: a file layer's remove
			o = Op{Kind: OpDeallocate, LBA: blockLBA(), Pages: 1 + r.Intn(4)}
		case w < 87: // block read
			o = Op{Kind: OpBlockRead, LBA: blockLBA(), Pages: 1 + r.Intn(4)}
		case w < 92: // read dma
			o = Op{Kind: OpReadDMA, EID: core.EID(r.Intn(sc.MaxEntries)), Len: 1 + r.Intn(4*ps)}
		case w < 95:
			o = Op{Kind: OpPowerCycle}
		default:
			o = Op{Kind: OpDrain}
		}
		ops = append(ops, o)
	}
	return ops
}

// auditEvery is how many ops of a trace pass between the stack's
// self-checks, besides the one at every power-on.
const auditEvery = 64

// check runs pt's trace on env against a fresh stack and model and
// returns the first divergence (if any) and the relocations under it.
func check(env *sim.Env, pt Point, cfg Config) Result {
	seed := pt.Seed
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

	var res Result
	env.Go("oracle.fuzz", func(p *sim.Proc) {
		if cfg.GCActive {
			if d := precondition(p, s, m, seed, cfg.lbaSpan()); d != nil {
				d.Seed, d.OpIndex = seed, -1
				res.Divergence = d
				return
			}
		}
		for i, o := range pt.Choices {
			res.Ops = i + 1
			d := execOp(p, s, m, o)
			if d == nil && res.Ops%auditEvery == 0 {
				d = audit(s)
			}
			if d != nil {
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
	res.GCRelocations = obs.Of(env).Registry().Counter("ftl.gc_relocations").Value()
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
	r := sim.NewRand(seed ^ 0x6C0FFEE)
	data := make([]byte, burst*s.PageSize())
	write := func(lba, pages int) *Divergence {
		buf := data[:pages*s.PageSize()]
		fillPattern(buf, r.Uint64())
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
		if d := write(r.Intn(span-4), 4); d != nil {
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
		got := make([]byte, o.Pages*s.PageSize())
		rerr := s.Device().ReadPagesInto(p, o.LBA, got)
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
	case OpDrain:
		if err := s.Device().Drain(p); err != nil {
			return &Divergence{Detail: fmt.Sprintf("drain failed: %v", err)}
		}
		return nil
	case OpDeallocate:
		if d := wantErr(s.Device().Deallocate(o.LBA, o.Pages), m.Deallocate(o.LBA, o.Pages)); d != nil {
			return d
		}
		return audit(s) // the write buffer holds its invariants after every deallocate
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
	lost := m.PowerCut(lerr == nil)
	if lost != rep.LostWCBursts {
		return &Divergence{Detail: fmt.Sprintf("lost WC bursts: stack %d, model %d", rep.LostWCBursts, lost)}
	}
	if err := s.PowerOn(p); err != nil {
		return &Divergence{Detail: fmt.Sprintf("power on failed: %v", err)}
	}
	if d := audit(s); d != nil {
		return d
	}
	m.PowerOn()
	return compareEntries(s, m, "post-recovery")
}

// audit runs the drive's self-check (core.TwoBSSD.Audit).
func audit(s *core.TwoBSSD) *Divergence {
	if err := s.Audit(); err != nil {
		return &Divergence{Detail: err.Error()}
	}
	return nil
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
		got := make([]byte, m.cfg.PageSize)
		for lba := 0; lba < cfg.lbaSpan(); lba++ {
			rerr := s.Device().ReadPagesInto(p, ftl.LBA(lba), got)
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
