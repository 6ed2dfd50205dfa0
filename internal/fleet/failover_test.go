package fleet

import (
	"slices"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

// smokeConfig is `bench2b fleet-smoke`'s fleet (internal/bench's
// fleetSmokeScenario): 2 devices, tenants t00 and t01, and tenant t00's
// primary loses power at 2 ms.
func smokeConfig() Config {
	cfg := Config{
		Devices: 2,
		Policy:  Hash,
		QoS:     QoSConfig{Slots: 2, BurstOps: 4, MaxInflight: 8},
		Crash:   &CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)},
	}
	for i, name := range []string{"t00", "t01"} {
		cfg.Tenants = append(cfg.Tenants, traffic.Spec{
			Tenant:       name,
			Seed:         0x2B50 + uint64(i)*0x9E37,
			Arrival:      traffic.Poisson{RatePerSec: 20000},
			Ops:          120,
			Keys:         1 << 14,
			Theta:        0.99,
			ReadFraction: 0.25,
			PayloadBytes: 128,
			MaxRetries:   8,
			RetryBackoff: 20 * sim.Microsecond,
		})
	}
	return cfg
}

// runTraced runs cfg's fleet with span tracing on every device and
// returns it with its result.
func runTraced(t *testing.T, cfg Config) (*fleetRT, *Result) {
	t.Helper()
	fr, g, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fr.nodes {
		obs.Of(n.env).EnableTracing()
	}
	g.Run()
	res := buildResult(fr, g.Events())
	g.Shutdown()
	return fr, res
}

// The new primary serves no takeover before its verify ends. Pinned:
// fleet-smoke's fleet tripped at 2.15 ms, where t00's seqs 43, 45 and
// 46 arrive 16–34 µs after the trip and reroute to the follower. With
// the notice sent after the capacitor dump (≈ 220 µs), the three
// reached the follower ahead of it and were applied and acked before
// the verify began. A sweep of trip instants holds the rule around it.
func TestTakeoverAckWaitsForTheVerify(t *testing.T) {
	cfg := smokeConfig()
	cfg.Crash.At = 2150 * sim.Time(sim.Microsecond)
	fr, res := runTraced(t, cfg)
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	t00 := fr.tenants[0]
	if !t00.failedOver {
		t.Fatal("t00 did not fail over")
	}
	for _, seq := range []int{43, 45, 46} {
		if !t00.sent[seq] || t00.committed[seq] || !t00.acked[seq] {
			t.Errorf("t00 seq %d: sent %v, committed on the dead primary %v, acked %v; want an acked takeover",
				seq, t00.sent[seq], t00.committed[seq], t00.acked[seq])
		}
	}
	for at := sim.Time(1800); at <= 3000; at += 50 {
		cfg.Crash.At = at * sim.Time(sim.Microsecond)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Violations(); len(v) != 0 {
			t.Errorf("trip at %v: violations %v", cfg.Crash.At, v)
		}
	}
}

// A takeover record that reaches a follower which has not verified its
// redo log is a violation: a rogue reroute sent before any failover
// must be reported.
func TestTakeoverBeforeTheVerifyIsAViolation(t *testing.T) {
	cfg := smokeConfig()
	cfg.Crash = nil
	fr, g, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t00 := fr.tenants[0]
	payload := appendPayload(nil, t00.name, 7, 0, 128)
	t00.pnode.env.GoAt(sim.Time(sim.Millisecond), "rogue", func(p *sim.Proc) {
		t00.data.Send(p, repMsg{seq: 7, payload: payload})
	})
	g.Run()
	res := buildResult(fr, g.Events())
	g.Shutdown()
	want := "t00: takeover seq 7 applied before the failover verify"
	if !slices.Contains(res.Violations(), want) {
		t.Fatalf("violations %v lack %q", res.Violations(), want)
	}
}

// The failover notice leaves at the trip: the follower's verify, its
// redo log's first Recover, begins one link latency after the trip, not
// after the dead drive's capacitor dump.
func TestFailoverNoticeLeavesAtTheTrip(t *testing.T) {
	cfg := smokeConfig()
	fr, res := runTraced(t, cfg)
	if res.Failover == nil || res.Failover.Tenants != 1 {
		t.Fatalf("failover %+v, want one tenant", res.Failover)
	}
	t00 := fr.tenants[0]
	tr := obs.Of(t00.fnode.env).Tracer()
	for _, ev := range tr.Events() {
		if ev.Cat == "wal" && ev.Name == "recover" && tr.Track(ev.TID) == "fleet.redo.t00" {
			if want := cfg.Crash.At + sim.Time(cfg.netLatency()); ev.TS != want {
				t.Fatalf("the verify began at %v, want the trip plus the link latency, %v", ev.TS, want)
			}
			return
		}
	}
	t.Fatal("the follower never recovered its redo log")
}
