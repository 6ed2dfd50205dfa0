// Package fault is the deterministic fault-injection layer of the
// simulator. A seeded Plan describes *what* goes wrong — a power cut at
// an exact virtual nanosecond or at the Nth occurrence of a device
// event, NAND read bit errors drawn from a P/E-cycle- and
// retention-driven raw-BER model, a capacitor dump that dies partway —
// the faults the crash and fuzz campaigns sweep — and the
// Injector installed on a sim.Env answers the cheap questions the
// datapaths ask ("does this read fail?", "is power gone yet?").
//
// Determinism is the contract: every decision is drawn from splitmix64
// streams seeded by Plan.Seed, and the sim kernel is single-threaded,
// so one (plan, workload) pair always produces the same faults at the
// same virtual times. The disabled path is a nil *Injector whose
// methods are allocation-free no-ops, mirroring the nil *obs.Tracer —
// a fault-free run's virtual timing cannot be perturbed because the
// hooks only observe (and the BER bookkeeping is skipped entirely when
// no injector is installed).
//
// The Injector rides in the obs.Set's aux slot rather than competing
// for the sim.Env's single attachment slot; Install must run before
// the device stack is built because components cache the (possibly
// nil) injector at construction time.
package fault

import (
	"fmt"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// Event classes the datapaths report to the injector. Counting them is
// what lets a Plan express trigger points like "power dies at the 37th
// NAND program" or "mid way through staging a WC burst".
type Event uint8

const (
	// EvNandProgram fires once per NAND page program.
	EvNandProgram Event = iota
	// EvWCBurst fires once per write-combining burst staged at the
	// MMIO window (pcie.Window.Write).
	EvWCBurst
	// EvBAFlushPage fires once per page moved by BA_FLUSH / the
	// internal buffer<->NAND mover.
	EvBAFlushPage
	// EvWalCommit fires once per successful WAL commit.
	EvWalCommit
	// EvWalRotate fires once per segmented-WAL rotation (active
	// segment sealed + next ring slot recycled).
	EvWalRotate
	// EvWalCheckpoint fires once per durable segmented-WAL checkpoint
	// (meta page written, before truncation starts).
	EvWalCheckpoint
	// EvWalTruncate fires once per truncated (freed) WAL segment.
	EvWalTruncate

	numEvents
)

// String names an event class for reports.
func (e Event) String() string {
	switch e {
	case EvNandProgram:
		return "nand_program"
	case EvWCBurst:
		return "wc_burst"
	case EvBAFlushPage:
		return "ba_flush_page"
	case EvWalCommit:
		return "wal_commit"
	case EvWalRotate:
		return "wal_rotate"
	case EvWalCheckpoint:
		return "wal_checkpoint"
	case EvWalTruncate:
		return "wal_truncate"
	}
	return fmt.Sprintf("event_%d", int(e))
}

// Trigger describes when the injector trips (declares power lost). At
// most one of the two forms is active: an exact virtual time (At > 0),
// or the Nth event of class On (N > 0). A zero Trigger never fires.
//
// Tripping does not itself cut power — the sim has no way to kill
// in-flight procs — it raises a flag the crash harness polls at
// operation boundaries before calling PowerLoss. See DESIGN.md §7.
type Trigger struct {
	At sim.Time // trip at this exact virtual nanosecond
	On Event    // trip on the N-th event of this class...
	N  uint64   // ...when N > 0
}

// String renders the trigger for deterministic reports.
func (t Trigger) String() string {
	switch {
	case t.At > 0:
		return fmt.Sprintf("t=%dns", int64(t.At))
	case t.N > 0:
		return fmt.Sprintf("%s#%d", t.On, t.N)
	}
	return "none"
}

// BERModel parameterises NAND read bit errors. The raw bit error rate
// of a page grows with the block's P/E cycles (wear) and with
// retention (time since the page was programmed):
//
//	rawBER = Base * (1 + PECycleGrowth*eraseCount) * (1 + RetentionPerHour*hours)
//
// The expected bit-error count of a read is rawBER * pageBits; the
// ECC engine corrects up to ECCBits of them. Beyond that the
// controller re-reads with shifted sense thresholds — each retry step
// costs RetryLatency and halves the surviving error count — and a page
// still uncorrectable after RetrySteps retries returns
// nand.ErrUncorrectable for the FTL to handle.
type BERModel struct {
	Base             float64      // raw BER of a fresh page (e.g. 1e-5)
	PECycleGrowth    float64      // BER growth per erase cycle
	RetentionPerHour float64      // BER growth per hour of retention
	ECCBits          int          // correctable bits per page codeword
	RetrySteps       int          // max read-retry attempts
	RetryLatency     sim.Duration // extra latency per retry step
}

// Plan is the full fault scenario for one simulation environment.
// The zero Plan (plus a Seed) injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs with the
	// same plan and workload produce identical fault sequences.
	Seed uint64

	// PowerLoss trips the injector (see Trigger).
	PowerLoss Trigger

	// BER enables NAND read bit errors when non-nil.
	BER *BERModel

	// CutDumpAfterPages kills the capacitor-powered dump after that
	// many pages have been programmed, leaving a torn image the
	// recovery manager must detect (0 disables).
	CutDumpAfterPages int
}

// triggers lists the plan's Trigger fields: the thresholds the
// campaign shrinker bisects and a finding's line names. A new trigger
// is one more field of Plan and one more entry here.
func (p *Plan) triggers() []*Trigger { return []*Trigger{&p.PowerLoss} }

// ReadDisturb is the injector's verdict on one NAND page read.
type ReadDisturb struct {
	Retries       int          // read-retry steps taken
	Extra         sim.Duration // added latency (Retries * RetryLatency)
	Uncorrectable bool         // still failing after all retries
}

// Injector is the per-environment fault engine. A nil *Injector is the
// disabled state: every method is a no-op that allocates nothing, so
// datapaths call hooks unconditionally on their cached pointer.
type Injector struct {
	env  *sim.Env
	plan Plan

	// The BER model's draws; the other fault classes draw nothing.
	rngRead sim.Rand

	counts  [numEvents]uint64
	armed   bool
	tripped bool
	tripAt  sim.Time
	tripWhy string

	cTrips, cRetries, cUncorr, cDumpCut *obs.Counter
}

// Install creates an Injector for plan and attaches it to env (in the
// obs.Set aux slot). It must run before the device stack is built:
// nand/ftl/device/pcie/core/wal cache the injector at construction.
// Installing twice replaces the previous injector for components built
// afterwards.
func Install(env *sim.Env, plan Plan) *Injector {
	in := &Injector{env: env, plan: plan, armed: true}
	in.rngRead = sim.NewRand(plan.Seed ^ 0xA5A5A5A5A5A5A5A5)
	reg := obs.Of(env).Registry()
	in.cTrips = reg.Counter("fault.trips")
	in.cRetries = reg.Counter("fault.ecc_retries")
	in.cUncorr = reg.Counter("fault.uncorrectable_reads")
	in.cDumpCut = reg.Counter("fault.dump_cuts")
	obs.Of(env).SetAux(in)
	if plan.PowerLoss.At > 0 {
		env.GoAt(plan.PowerLoss.At, "fault.trip", func(p *sim.Proc) {
			in.trip(plan.PowerLoss.String())
		})
	}
	return in
}

// Of returns the injector installed on env, or nil. The lookup is
// allocation-free; components call it once at construction and cache
// the result.
func Of(env *sim.Env) *Injector {
	if v := env.Attachment(); v != nil {
		if s, ok := v.(*obs.Set); ok {
			if in, ok := s.Aux().(*Injector); ok {
				return in
			}
		}
	}
	return nil
}

func (in *Injector) trip(why string) {
	if in.tripped || !in.armed {
		return
	}
	in.tripped = true
	in.tripAt = in.env.Now()
	in.tripWhy = why
	in.cTrips.Inc()
}

// Tick reports one occurrence of an event class and trips the power
// trigger when its threshold is reached. Nil-safe and allocation-free.
func (in *Injector) Tick(ev Event) {
	if in == nil {
		return
	}
	in.counts[ev]++
	t := in.plan.PowerLoss
	if in.armed && !in.tripped && t.N > 0 && t.On == ev && in.counts[ev] >= t.N {
		in.trip(t.String())
	}
}

// Count returns how many events of a class have been reported.
func (in *Injector) Count(ev Event) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[ev]
}

// Tripped reports whether the power-loss trigger has fired. Crash
// harnesses poll this at operation boundaries and then call PowerLoss.
func (in *Injector) Tripped() bool { return in != nil && in.tripped }

// TripInfo returns why and when the trigger fired.
func (in *Injector) TripInfo() (why string, at sim.Time) {
	if in == nil {
		return "", 0
	}
	return in.tripWhy, in.tripAt
}

// Disarm stops the power trigger from firing (the tripped flag, if
// already set, is kept). The crash harness disarms before running
// recovery so post-crash activity cannot re-trip.
func (in *Injector) Disarm() {
	if in != nil {
		in.armed = false
	}
}

// ReadFault decides the fate of one NAND page read given the block's
// wear and the page's retention age. Nil injectors and plans without a
// BER model return the zero verdict.
func (in *Injector) ReadFault(pageBytes, eraseCount int, age sim.Duration) ReadDisturb {
	if in == nil || in.plan.BER == nil {
		return ReadDisturb{}
	}
	m := in.plan.BER
	hours := float64(age) / float64(3600*sim.Second)
	ber := m.Base * (1 + m.PECycleGrowth*float64(eraseCount)) * (1 + m.RetentionPerHour*hours)
	lambda := ber * float64(pageBytes) * 8
	errs := int(lambda)
	if in.rngRead.Float() < lambda-float64(errs) {
		errs++
	}
	if errs <= m.ECCBits {
		return ReadDisturb{}
	}
	var rd ReadDisturb
	for errs > m.ECCBits && rd.Retries < m.RetrySteps {
		rd.Retries++
		rd.Extra += m.RetryLatency
		errs /= 2
	}
	rd.Uncorrectable = errs > m.ECCBits
	in.cRetries.Add(uint64(rd.Retries))
	if rd.Uncorrectable {
		in.cUncorr.Inc()
	}
	return rd
}

// DumpCut reports whether the capacitor dump dies before programming
// its (pagesDone+1)-th page.
func (in *Injector) DumpCut(pagesDone int) bool {
	if in == nil || in.plan.CutDumpAfterPages <= 0 {
		return false
	}
	if pagesDone < in.plan.CutDumpAfterPages {
		return false
	}
	in.cDumpCut.Inc()
	return true
}
