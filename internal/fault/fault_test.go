package fault

import (
	"testing"

	"twobssd/internal/sim"
)

// The disabled path is a nil *Injector: every hook must be a no-op
// that allocates nothing, so a fault-free run pays only the cached-nil
// pointer checks on the sim hot path.
func TestNilInjectorHooksAllocateNothing(t *testing.T) {
	var in *Injector
	allocs := testing.AllocsPerRun(1000, func() {
		in.Tick(EvNandProgram)
		in.Tick(EvWCBurst)
		_ = in.Tripped()
		_, _ = in.TripInfo()
		_ = in.Count(EvWalCommit)
		_ = in.ReadFault(4096, 100, 3600*sim.Second)
		_ = in.DumpCut(1)
		in.Disarm()
	})
	if allocs != 0 {
		t.Fatalf("nil-injector hooks allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledInjectorHooks(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Tick(EvNandProgram)
		_ = in.Tripped()
		_ = in.ReadFault(4096, 100, 0)
	}
}

func TestEventTriggerTripsAtNthEvent(t *testing.T) {
	env := sim.NewEnv()
	in := Install(env, Plan{Seed: 1, PowerLoss: Trigger{On: EvWalCommit, N: 3}})
	for i := 0; i < 2; i++ {
		in.Tick(EvWalCommit)
		if in.Tripped() {
			t.Fatalf("tripped after %d events, want 3", i+1)
		}
	}
	in.Tick(EvNandProgram) // other classes must not advance the trigger
	if in.Tripped() {
		t.Fatal("tripped on the wrong event class")
	}
	in.Tick(EvWalCommit)
	if !in.Tripped() {
		t.Fatal("not tripped at the 3rd wal commit")
	}
	if why, _ := in.TripInfo(); why != "wal_commit#3" {
		t.Fatalf("trip reason = %q, want wal_commit#3", why)
	}
}

func TestTimeTriggerTripsAtVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	in := Install(env, Plan{Seed: 1, PowerLoss: Trigger{At: 12345}})
	env.Go("spin", func(p *sim.Proc) { p.Sleep(1 * sim.Millisecond) })
	env.Run()
	if !in.Tripped() {
		t.Fatal("time trigger never fired")
	}
	if _, at := in.TripInfo(); at != 12345 {
		t.Fatalf("tripped at t=%d, want 12345", int64(at))
	}
}

func TestDisarmStopsTripping(t *testing.T) {
	env := sim.NewEnv()
	in := Install(env, Plan{Seed: 1, PowerLoss: Trigger{On: EvWCBurst, N: 1}})
	in.Disarm()
	in.Tick(EvWCBurst)
	if in.Tripped() {
		t.Fatal("disarmed injector tripped")
	}
}

// Same seed, same plan: the probabilistic hook must produce identical
// decision sequences across independent injectors.
func TestSameSeedSameFaultSequence(t *testing.T) {
	mk := func() *Injector {
		return Install(sim.NewEnv(), Plan{Seed: 42, BER: DefaultBER()})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		ar := a.ReadFault(4096, 3000, 100*3600*sim.Second)
		br := b.ReadFault(4096, 3000, 100*3600*sim.Second)
		if ar != br {
			t.Fatalf("read-fault sequences diverge at %d: %+v vs %+v", i, ar, br)
		}
	}
}

func TestBERModelRetriesAndUncorrectable(t *testing.T) {
	env := sim.NewEnv()
	// lambda = 1e-3 * 4096*8 ≈ 32.8 expected bit errors.
	m := &BERModel{Base: 1e-3, ECCBits: 10, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond}
	in := Install(env, Plan{Seed: 9, BER: m})
	rd := in.ReadFault(4096, 0, 0)
	// 32ish errors halve per retry: 32 -> 16 -> 8 <= 10 after 2 steps.
	if rd.Retries != 2 || rd.Uncorrectable {
		t.Fatalf("verdict = %+v, want 2 correcting retries", rd)
	}
	if rd.Extra != 2*m.RetryLatency {
		t.Fatalf("extra latency = %v, want %v", rd.Extra, 2*m.RetryLatency)
	}

	// With ECC that only corrects 1 bit the same read stays broken.
	m2 := &BERModel{Base: 1e-3, ECCBits: 1, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond}
	in2 := Install(sim.NewEnv(), Plan{Seed: 9, BER: m2})
	if rd := in2.ReadFault(4096, 0, 0); !rd.Uncorrectable {
		t.Fatalf("verdict = %+v, want uncorrectable", rd)
	}

	// Fresh pages with a realistic model read clean.
	in3 := Install(sim.NewEnv(), Plan{Seed: 9, BER: DefaultBER()})
	if rd := in3.ReadFault(4096, 0, 0); rd != (ReadDisturb{}) {
		t.Fatalf("fresh page verdict = %+v, want clean", rd)
	}
}

// Wear and retention must monotonically raise the modeled raw BER.
func TestBERModelGrowsWithWearAndRetention(t *testing.T) {
	m := DefaultBER()
	ber := func(erase int, hours float64) float64 {
		return m.Base * (1 + m.PECycleGrowth*float64(erase)) * (1 + m.RetentionPerHour*hours)
	}
	if !(ber(1000, 0) > ber(0, 0)) {
		t.Fatal("BER must grow with P/E cycles")
	}
	if !(ber(0, 100) > ber(0, 0)) {
		t.Fatal("BER must grow with retention")
	}
}

func TestOfReturnsInstalledInjector(t *testing.T) {
	env := sim.NewEnv()
	if Of(env) != nil {
		t.Fatal("Of on a bare env must be nil")
	}
	in := Install(env, Plan{Seed: 7})
	if Of(env) != in {
		t.Fatal("Of must return the installed injector")
	}
}

// DefaultBER returns a mid-life TLC-ish model: reads stay clean on
// young blocks and short retention, retries appear as either grows.
func DefaultBER() *BERModel {
	return &BERModel{
		Base:             1e-5,
		PECycleGrowth:    0.002,
		RetentionPerHour: 0.5,
		ECCBits:          40,
		RetrySteps:       4,
		RetryLatency:     60 * sim.Microsecond,
	}
}
