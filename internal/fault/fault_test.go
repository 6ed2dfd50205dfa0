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
		_ = in.DumpCut(1)
	}
}

func TestEventTriggerTripsAtNthEvent(t *testing.T) {
	env := sim.NewEnv()
	in := Install(env, Plan{PowerLoss: Trigger{On: EvWalCommit, N: 3}})
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
	in := Install(env, Plan{PowerLoss: Trigger{At: 12345}})
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
	in := Install(env, Plan{PowerLoss: Trigger{On: EvWCBurst, N: 1}})
	in.Disarm()
	in.Tick(EvWCBurst)
	if in.Tripped() {
		t.Fatal("disarmed injector tripped")
	}
}

// Same plan, same faults: two injectors fed the same event stream trip
// at the same event and cut their dumps at the same page.
func TestSameSeedSameFaultSequence(t *testing.T) {
	mk := func() *Injector {
		return Install(sim.NewEnv(), Plan{PowerLoss: Trigger{On: EvNandProgram, N: 30}, CutDumpAfterPages: 7})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		ev := Event(i % int(numEvents))
		a.Tick(ev)
		b.Tick(ev)
		if a.Tripped() != b.Tripped() || a.DumpCut(i) != b.DumpCut(i) {
			t.Fatalf("fault sequences diverge at event %d", i)
		}
	}
	wa, _ := a.TripInfo()
	wb, _ := b.TripInfo()
	if !a.Tripped() || wa != wb {
		t.Fatalf("trips %q and %q, want the same nand_program#30", wa, wb)
	}
}

func TestOfReturnsInstalledInjector(t *testing.T) {
	env := sim.NewEnv()
	if Of(env) != nil {
		t.Fatal("Of on a bare env must be nil")
	}
	in := Install(env, Plan{})
	if Of(env) != in {
		t.Fatal("Of must return the installed injector")
	}
}
