// The `bench2b fleet` experiment family: multi-device fleets of
// simulated 2B-SSDs under tenant traffic, exercising the shard router,
// BA-log replication, QoS slot arbitration and failover end to end.
// Each scenario is one fleet.Run on its own sim.Group — one event queue
// over all its devices — scenarios fan out through points() (so -j
// applies), and every run doubles as an integrity gate: lost or phantom
// records, or a missed failover, fail the run.
package bench

import (
	"fmt"
	"io"
	"strings"

	"twobssd/internal/fleet"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

// fleetTenantOps sizes per-tenant traffic from the experiment scale.
func fleetTenantOps(s Scale) int {
	ops := int(s.AppOps / 20) // Quick: 150, Full: 1500
	if ops < 50 {
		ops = 50
	}
	return ops
}

// fleetScenario is one named fleet configuration.
type fleetScenario struct {
	id    string
	title string
	cfg   fleet.Config
}

// fleetTenants builds n tenant specs with per-tenant seeds and the
// given arrival process.
func fleetTenants(n, ops int, seedBase uint64, arrival func(i int) traffic.Arrival) []traffic.Spec {
	specs := make([]traffic.Spec, n)
	for i := range specs {
		specs[i] = traffic.Spec{
			Tenant:       fmt.Sprintf("t%02d", i),
			Seed:         seedBase + uint64(i)*0x9E37,
			Arrival:      arrival(i),
			Ops:          ops,
			Keys:         1 << 14,
			Theta:        0.99,
			ReadFraction: 0.25,
			PayloadBytes: 128,
			MaxRetries:   8,
			RetryBackoff: 20 * sim.Microsecond,
		}
	}
	return specs
}

// fleetBase is the shared fleet shape: 4 devices, 8 tenants, hash
// placement, 4 QoS slots per device (16 log streams fleet-wide, so the
// mapping table is genuinely contended).
func fleetBase(s Scale, seed uint64, arrival func(i int) traffic.Arrival) fleet.Config {
	return fleet.Config{
		Devices: 4,
		Policy:  fleet.Hash,
		Seed:    seed,
		QoS:     fleet.QoSConfig{Slots: 4, BurstOps: 4, MaxInflight: 8},
		Tenants: fleetTenants(8, fleetTenantOps(s), seed, arrival),
	}
}

// fleetScenarios is the full family: steady Zipfian load, bursty and
// diurnal arrivals, an open-loop saturation ramp with a tight retry
// budget (the retry-storm shape), and an injected primary power loss.
func fleetScenarios(s Scale) []fleetScenario {
	steady := fleetBase(s, 0x2B51, func(i int) traffic.Arrival {
		return traffic.Poisson{RatePerSec: 20000}
	})
	bursty := fleetBase(s, 0x2B52, func(i int) traffic.Arrival {
		return traffic.Bursty{
			BasePerSec:  4000,
			BurstPerSec: 80000,
			BurstEvery:  sim.Duration(10+i) * sim.Millisecond,
			BurstLen:    2 * sim.Millisecond,
		}
	})
	diurnal := fleetBase(s, 0x2B53, func(i int) traffic.Arrival {
		return traffic.Diurnal{BasePerSec: 20000, Amplitude: 0.8, Period: 20 * sim.Millisecond}
	})
	sat := fleetBase(s, 0x2B54, func(i int) traffic.Arrival {
		return traffic.Ramp{StartPerSec: 5000, EndPerSec: 150000, Over: 20 * sim.Millisecond}
	})
	for i := range sat.Tenants {
		sat.Tenants[i].MaxRetries = 2 // tight budget: rejects become drops
	}
	sat.QoS.MaxInflight = 4
	fo := fleetBase(s, 0x2B55, func(i int) traffic.Arrival {
		return traffic.Poisson{RatePerSec: 20000}
	})
	fo.Crash = &fleet.CrashSpec{Device: -1, At: sim.Time(3 * sim.Millisecond)}
	return []fleetScenario{
		{"fleet-steady", "steady Zipfian load, 4 devices x 8 tenants", steady},
		{"fleet-bursty", "bursty arrivals (phase-staggered bursts)", bursty},
		{"fleet-diurnal", "diurnal rate modulation", diurnal},
		{"fleet-saturation", "saturation ramp + retry storm", sat},
		{"fleet-failover", "injected primary power loss at 3ms", fo},
	}
}

// fleetSmokeScenario is the CI-sized gate: 2 devices, 2 tenants, one
// injected primary crash with follower takeover.
func fleetSmokeScenario() fleetScenario {
	cfg := fleet.Config{
		Devices: 2,
		Policy:  fleet.Hash,
		Seed:    0x2B50,
		QoS:     fleet.QoSConfig{Slots: 2, BurstOps: 4, MaxInflight: 8},
		Tenants: fleetTenants(2, 120, 0x2B50, func(i int) traffic.Arrival {
			return traffic.Poisson{RatePerSec: 20000}
		}),
		Crash: &fleet.CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)},
	}
	return fleetScenario{"fleet-smoke", "2-device smoke fleet, primary crash + takeover", cfg}
}

// fleetTable renders one scenario result as a per-tenant table.
func fleetTable(sc fleetScenario, res *fleet.Result) *Table {
	t := &Table{
		ID:     sc.id,
		Title:  sc.title,
		XLabel: "tenant",
		Series: []string{"lat p50 us", "lat p99 us", "replag p50 us", "qos wait p99 us", "evict", "drop", "lost"},
	}
	for _, tr := range res.Tenants {
		x := fmt.Sprintf("%s d%d>d%d", tr.Name, tr.Primary, tr.Follower)
		if tr.FailedOver {
			x += "*"
		}
		t.AddRow(x,
			float64(tr.LatP50.Micros()), float64(tr.LatP99.Micros()),
			float64(tr.RepLagP50.Micros()), float64(tr.QoSWaitP99.Micros()),
			float64(tr.Evictions), float64(tr.Dropped), float64(tr.Lost))
	}
	for d, dr := range res.Devices {
		state := "up"
		if dr.Down {
			state = "DOWN"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"dev%d %s: fairness %.3f, %d leases, %d evictions",
			d, state, dr.Fairness, dr.Leases, dr.Evictions))
	}
	if fo := res.Failover; fo != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"failover: dev%d tripped at %.0fus, %d tenants took over, recovery max %.1fus, lost %d, phantom %d",
			fo.Device, sim.Duration(fo.TripAt).Micros(), fo.Tenants,
			fo.RecoveryMax.Micros(), fo.Lost, fo.Phantom))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("* = failed over; %d simulation events", res.Events))
	return t
}

// fleetOf is fleet experiment exp's scenarios at scale s (nil when exp
// is no fleet experiment).
func fleetOf(exp string, s Scale) []fleetScenario {
	switch exp {
	case "fleet":
		return fleetScenarios(s)
	case "fleet-smoke":
		return []fleetScenario{fleetSmokeScenario()}
	}
	return nil
}

// runFleet runs fleet experiment exp's scenarios — or only the one
// whose id is only, when set — as points and writes their tables to w
// in order. It returns an error when any scenario lost or phantomed a
// record, failed to fail over or failed its audit, naming each by its
// address, exp/<scenario>.
func runFleet(r *Runner, w io.Writer, exp, only string) error {
	var scens []fleetScenario
	for _, sc := range fleetOf(exp, r.Scale) {
		if only == "" || sc.id == only {
			scens = append(scens, sc)
		}
	}
	results, err := pointsErr(r, len(scens), func(i int) (*fleet.Result, error) {
		res, err := fleet.Run(scens[i].cfg)
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", exp, scens[i].id, err)
		}
		return res, err
	})
	if err != nil {
		return err
	}
	var violations []string
	for i, res := range results {
		fleetTable(scens[i], res).Print(w)
		for _, v := range res.Violations() {
			violations = append(violations, exp+"/"+scens[i].id+": "+v)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("fleet gate: %s", strings.Join(violations, "; "))
	}
	return nil
}
