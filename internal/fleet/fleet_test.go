package fleet

import (
	"reflect"
	"runtime"
	"testing"

	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

func testSpec(name string, seed uint64, ops int) traffic.Spec {
	return traffic.Spec{
		Tenant:       name,
		Seed:         seed,
		Arrival:      traffic.Poisson{RatePerSec: 20000},
		Ops:          ops,
		Keys:         1 << 12,
		Theta:        0.99,
		ReadFraction: 0.25,
		PayloadBytes: 96,
		MaxRetries:   8,
		RetryBackoff: 20 * sim.Microsecond,
	}
}

func testConfig(devices, tenants, ops int) Config {
	cfg := Config{
		Devices: devices,
		Policy:  Hash,
		Seed:    0xF1EE7,
		QoS:     QoSConfig{Slots: 4, BurstOps: 4, MaxInflight: 8},
	}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, testSpec(
			"t"+string(rune('a'+i)), 1000+uint64(i)*7, ops))
	}
	return cfg
}

// A healthy small fleet: every scheduled write replicates, acks, and
// survives the end-of-run media scan with zero lost/phantom records.
func TestFleetHealthyRun(t *testing.T) {
	cfg := testConfig(3, 4, 150)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, tr := range res.Tenants {
		writes := tr.Ops - tr.Reads - tr.Dropped
		if tr.Acked+tr.Degraded < writes {
			t.Fatalf("%s: %d writes but only %d acked + %d degraded",
				tr.Name, writes, tr.Acked, tr.Degraded)
		}
		if tr.Applied != tr.Acked {
			t.Fatalf("%s: follower applied %d but primary saw %d acks",
				tr.Name, tr.Applied, tr.Acked)
		}
		if tr.FailedOver {
			t.Fatalf("%s failed over without a crash", tr.Name)
		}
		if tr.LatP50 <= 0 || tr.RepLagP50 <= 0 {
			t.Fatalf("%s: empty latency/lag distributions: %+v", tr.Name, tr)
		}
	}
	for d, dr := range res.Devices {
		if dr.Down {
			t.Fatalf("device %d down without a crash", d)
		}
		if dr.Leases == 0 {
			t.Fatalf("device %d never leased a slot", d)
		}
		if dr.Fairness <= 0 || dr.Fairness > 1.0001 {
			t.Fatalf("device %d fairness %f outside (0,1]", d, dr.Fairness)
		}
	}
}

// Fewer slots than streams must produce contention (evictions) while
// still committing everything — the QoS arbitration at work.
func TestFleetQoSContention(t *testing.T) {
	cfg := testConfig(2, 6, 120)
	cfg.Policy = Range // pack 3 tenants per device: 6 streams on 4 slots
	cfg.QoS = QoSConfig{Slots: 2, BurstOps: 2, MaxInflight: 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	var evictions uint64
	for _, dr := range res.Devices {
		evictions += dr.Evictions
	}
	if evictions == 0 {
		t.Fatal("2 slots under 6 streams produced no evictions")
	}
}

// Injected primary power loss: the follower must take over with zero
// lost and zero phantom records, and rerouted traffic must land.
func TestFleetFailover(t *testing.T) {
	cfg := testConfig(3, 3, 200)
	cfg.Crash = &CrashSpec{Device: -1, At: sim.Time(3 * sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if res.Failover == nil || res.Failover.Tenants == 0 {
		t.Fatal("crash produced no failover")
	}
	if res.Failover.Lost != 0 || res.Failover.Phantom != 0 {
		t.Fatalf("failover lost %d phantom %d records",
			res.Failover.Lost, res.Failover.Phantom)
	}
	if res.Failover.RecoveryMax <= 0 {
		t.Fatal("failover recorded no recovery time")
	}
	if !res.Devices[res.Failover.Device].Down {
		t.Fatalf("crash device %d not marked down", res.Failover.Device)
	}
	sawTakeover := false
	for _, tr := range res.Tenants {
		if tr.FailedOver && tr.Takeover > 0 {
			sawTakeover = true
		}
	}
	if !sawTakeover {
		t.Fatal("no tenant rerouted traffic to its follower")
	}
}

// TestFleetResultGolden pins a crashed fleet's whole Result except the
// event count — every counter, percentile and fairness index — so a
// change to the kernel, the links or the fleet that moves the
// simulation fails here.
func TestFleetResultGolden(t *testing.T) {
	cfg := testConfig(4, 6, 120)
	cfg.Crash = &CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no simulation events counted")
	}
	res.Events = 0
	want := &Result{
		Tenants: []TenantResult{
			{Name: "ta", Primary: 2, Follower: 3, Ops: 120, Acked: 97, Reads: 8, Takeover: 58, Dropped: 15, Throttled: 133, Retries: 133, Applied: 97,
				LatP50: 355009, LatP99: 2965820, LatMax: 3180201, RepLagP50: 211090, RepLagMax: 547373, QoSWaitP99: 77935, Evictions: 21,
				FailedOver: true, Recovery: 972954},
			{Name: "tb", Primary: 1, Follower: 3, Ops: 120, Acked: 93, Reads: 27, Applied: 93,
				LatP50: 115097, LatP99: 387141, LatMax: 410152, RepLagP50: 155871, RepLagMax: 404480, QoSWaitP99: 52772, Evictions: 21},
			{Name: "tc", Primary: 3, Follower: 2, Ops: 120, Acked: 33, Reads: 25, Degraded: 62, Throttled: 12, Retries: 12, Applied: 33,
				LatP50: 202140, LatP99: 502059, LatMax: 547728, RepLagP50: 9741, RepLagMax: 21914, QoSWaitP99: 84989, Evictions: 22},
			{Name: "td", Primary: 1, Follower: 3, Ops: 120, Acked: 87, Reads: 33, Applied: 87,
				LatP50: 38967, LatP99: 273750, LatMax: 290874, RepLagP50: 101070, RepLagMax: 285223, QoSWaitP99: 77935, Evictions: 18},
			{Name: "te", Primary: 1, Follower: 3, Ops: 120, Acked: 93, Reads: 27, Throttled: 97, Retries: 97, Applied: 93,
				LatP50: 230195, LatP99: 2493948, LatMax: 2872025, RepLagP50: 262144, RepLagMax: 541100, QoSWaitP99: 101070, Evictions: 22},
			{Name: "tf", Primary: 1, Follower: 2, Ops: 120, Acked: 32, Reads: 19, Degraded: 69, Applied: 32,
				LatP50: 789, LatP99: 17866, LatMax: 39646, RepLagP50: 7867, RepLagMax: 20944},
		},
		Devices: []DeviceResult{
			{Fairness: 1},
			{Fairness: 0.9966487467585775, Leases: 8},
			{Down: true, Fairness: 1, Leases: 3},
			{Fairness: 0.9965199362151264, Leases: 115, Evictions: 104},
		},
		Failover: &FailoverResult{Device: 2, TripAt: 2000000, Tenants: 1, RecoveryMax: 972954},
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("fleet result moved:\n got %+v\nwant %+v", res, want)
	}
}

// Run must reject configurations replication cannot serve.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(Config{Devices: 1, Tenants: []traffic.Spec{testSpec("a", 1, 10)}}); err == nil {
		t.Fatal("single-device fleet accepted")
	}
	if _, err := Run(Config{Devices: 2}); err == nil {
		t.Fatal("tenantless fleet accepted")
	}
	cfg := testConfig(2, 1, 10)
	cfg.Crash = &CrashSpec{Device: 5, At: sim.Time(sim.Millisecond)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range crash device accepted")
	}
}

// A fleet op allocates almost nothing: the heap objects a run makes grow
// with its op count by well under one per op. Comparing two sizes of one
// fleet cancels what building and tearing it down costs.
func TestFleetOpAllocations(t *testing.T) {
	mallocs := func(ops int) uint64 {
		cfg := testConfig(3, 4, ops)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Violations(); len(v) != 0 {
			t.Fatalf("violations: %v", v)
		}
		return m1.Mallocs - m0.Mallocs
	}
	const small, large = 200, 800
	perOp := float64(mallocs(large)-mallocs(small)) / float64(4*(large-small))
	t.Logf("%.3f extra allocations per op", perOp)
	if perOp >= 0.5 {
		t.Fatalf("%.2f extra allocations per op between %d and %d ops per tenant, want < 0.5", perOp, small, large)
	}
}
