package main

import (
	"fmt"
	"math"
)

// fleet-failover: 4 devices x 8 tenants behind the rendezvous-hash
// router, open-loop Poisson arrivals at 1000 ops/s per tenant, QoS of 4
// slots per device (dev0 carries five log streams on four slots, so the
// mapping table is contended), 5 us links. Every round is a fresh fleet
// whose tenant-0 primary loses power at 60 % of the round.
//
// Two choices keep every op inside what the fleet model serves today
// (README, "Known limits"): tenants whose primary is the device that
// will crash issue writes only, because the model refuses reads on a
// failed-over tenant; and a round is 10 000 arrivals per tenant with a
// retry budget long enough to ride out the ~170 ms failover.
var fleetShape = FleetParams{
	Devices: 4, Tenants: 8,
	RatePerSec:   1000,
	ReadFraction: 0.25, PayloadBytes: 128, Keys: 1 << 14, Theta: 0.99,
	Slots: 4, BurstOps: 4, MaxInflight: 8,
	MaxRetries: 16, RetryBackoffNs: 20000,
	NetLatencyNs: 5000,
	LogBytes:     8 << 20, BlocksPerDie: 256,
}

const (
	fleetRoundArrivals = 10000 // per tenant
	fleetRoundOver     = 25000 // limitFleetLost
	fleetRoundsAtScale = 6
	fleetWarmArrivals  = 5000 // per tenant, crash-free, part of set-up
	fleetCrashAt       = 0.6
)

// fleetPlan turns a scale into rounds of equal size.
func fleetPlan(scale float64, perRound int) (rounds, arrivals int) {
	total := float64(fleetRoundsAtScale*fleetRoundArrivals) * scale
	rounds = int(math.Ceil(total / float64(perRound)))
	if rounds < 1 {
		rounds = 1
	}
	arrivals = int(total / float64(rounds))
	if arrivals < 100 {
		arrivals = 100
	}
	return rounds, arrivals
}

func runFleet(o RunOpts) *RunResult {
	r := newResult("fleet-failover")
	perRound := fleetRoundArrivals
	if o.Limit == limitFleetLost {
		perRound = fleetRoundOver
	}
	rounds, arrivals := fleetPlan(o.Measured, perRound)
	r.Attempted = int64(rounds * arrivals * fleetShape.Tenants)

	err := timedSetups(r, o, func() error {
		warm := fleetShape
		warm.Arrivals = int(float64(fleetWarmArrivals) * o.Setup)
		if warm.Arrivals < 100 {
			warm.Arrivals = 100
		}
		warm.Seed = uint64(o.Seed)*7919 + 1
		out, err := RunFleetRound(warm)
		if err == nil && len(out.Violations) > 0 {
			err = fmt.Errorf("warm-up round: %v", out.Violations)
		}
		return err
	}, func() {})
	if err != nil {
		r.fail(r.Attempted, "set-up: %v", err)
		return r
	}

	var (
		lat, repLag     Hist
		worstWaitP99    float64
		spanNs          int64
		completed       int64
		writes          int64
		recoveries      []float64
		dropped, lost   int64
		phantom         int64
		retries         int64
		degraded, taken int64
		leases, evicts  uint64
		fairMin         = 1.0
	)
	tr := o.Tracer
	meter := startMeter()
	for round := 0; round < rounds; round++ {
		fp := fleetShape
		fp.Arrivals, fp.CrashAtSpanFrac = arrivals, fleetCrashAt
		fp.Seed = uint64(o.Seed) + uint64(round)
		root := tr.Begin(fmt.Sprintf("round %d", round), 0, -1, 0)
		out, err := RunFleetRound(fp)
		tr.End(root, out.SpanNs)
		if err != nil {
			// The fleet faulted: the round's ops were not served.
			r.fail(int64(arrivals*fleetShape.Tenants), "round %d: %v", round, err)
			continue
		}
		for i, t := range out.Tenants {
			sp := tr.Begin(t.Name, int32(i+1), root, 0)
			tr.End(sp, out.DeviceNowNs[t.Primary])
			lat.Merge(t.Lat)
			repLag.Merge(t.RepLag)
			worstWaitP99 = math.Max(worstWaitP99, t.QoSWait.Quantile(0.99))
			completed += int64(t.Completed)
			writes += int64(t.Writes)
			dropped += int64(t.Dropped)
			lost += int64(t.Lost)
			phantom += int64(t.Phantom)
			retries += int64(t.Retries)
			degraded += int64(t.Degraded)
			taken += int64(t.Takeover)
			for _, e := range t.Errs {
				r.fail(1, "round %d: %s", round, e)
			}
		}
		if out.FailedOver == 0 {
			r.fail(1, "round %d: the power loss triggered no failover", round)
		}
		spanNs += out.SpanNs
		recoveries = append(recoveries, float64(out.RecoveryMaxNs))
		r.Delta.Add(out.Counts)
		r.Events += out.Events
		leases += out.Leases
		evicts += out.Evictions
		for _, f := range out.Fairness {
			fairMin = math.Min(fairMin, f)
		}
	}
	r.setHost(meter.stop())
	if dropped+lost+phantom > 0 {
		r.fail(dropped+lost+phantom, "%d ops dropped, %d records lost, %d phantom", dropped, lost, phantom)
	}

	ops := float64(r.Attempted)
	r.Samples = int(lat.N)
	r.E2E["sim_op_midmean_us"] = lat.BandMean(0.25, 0.75) / 1e3
	r.E2E["sim_op_tail_us"] = lat.BandMean(0.99, 1) / 1e3
	r.P50Ns, r.P99Ns = lat.Quantile(0.5), lat.Quantile(0.99)
	if q, ok := highestPercentile(int(lat.N)); ok {
		r.TailQ, r.TailQNs = q, lat.Quantile(q)
	}
	r.OpTimeNs = lat.SumNs
	if spanNs > 0 {
		r.E2E["sim_ops_per_s"] = float64(completed) / (float64(spanNs) / 1e9)
	}
	if writes > 0 {
		r.E2E["sim_nand_bytes_per_user_byte"] = float64(r.Delta.C["nand.bytes_written"]) / float64(writes*int64(fleetShape.PayloadBytes))
	}
	r.E2E["sim_recovery_ms"] = median(recoveries) / 1e6

	r.Layer["client.op_p50_us"] = r.P50Ns / 1e3
	r.Layer["client.op_p99_us"] = r.P99Ns / 1e3
	r.Layer["client.op_p999_us"] = lat.Quantile(0.999) / 1e3
	r.Layer["fleet.replag_p50_us"] = repLag.Quantile(0.5) / 1e3
	r.Layer["fleet.replag_max_us"] = float64(repLag.MaxNs) / 1e3
	r.Layer["fleet.qos_wait_p99_us"] = worstWaitP99 / 1e3
	r.Layer["fleet.evictions_per_op"] = float64(evicts) / ops
	r.Layer["fleet.leases_per_op"] = float64(leases) / ops
	r.Layer["fleet.fairness_min"] = fairMin
	r.Layer["fleet.dropped_share"] = float64(dropped) / ops
	r.Layer["fleet.retries_per_op"] = float64(retries) / ops
	r.Layer["fleet.degraded_share"] = float64(degraded) / ops
	r.Layer["fleet.takeover_share"] = float64(taken) / ops
	r.Layer["fleet.lost"] = float64(lost)
	r.Layer["fleet.phantom"] = float64(phantom)
	if r.Events > 0 {
		r.Layer["fleet.host_ns_per_event"] = float64(r.WallNs) / float64(r.Events)
	}
	r.Layer["wal.seg.tail_lag.sim_us"] = repLag.Quantile(0.5) / 1e3
	r.Notes = append(r.Notes, fmt.Sprintf("%d rounds x %d tenants x %d arrivals; open loop %.0f ops/s per tenant; failover verified per round (recovery max, ms: %v)",
		rounds, fleetShape.Tenants, arrivals, fleetShape.RatePerSec, msList(recoveries)))
	return r
}

func msList(ns []float64) []string {
	out := make([]string, len(ns))
	for i, v := range ns {
		out[i] = fmt.Sprintf("%.1f", v/1e6)
	}
	return out
}
