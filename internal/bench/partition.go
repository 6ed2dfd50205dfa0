package bench

import (
	"reflect"
	"runtime"
	"sort"
	"time"

	"twobssd/internal/fleet"
)

// Partitioned execution (sim.Group workers, fleet.Config.Workers) is a
// property of the library, pinned by its own invariance tests and the
// fleet-smoke identity probe; the harness never turns it on. This file
// keeps the one instrument that says what it would buy: the steady
// 4-device fleet wall-clocked at one worker and at one worker per
// device (capped by the host's CPUs).

// PartitionReport is the -benchjson worker-count probe: median wall
// time of fleet.Run on the fleet-steady scenario at Workers 1 and at
// Shards workers, and whether every run produced the identical Result
// (the determinism bar for partitioned mode).
type PartitionReport struct {
	Shards            int     `json:"shards"` // workers of the partitioned leg
	Pairs             int     `json:"pairs"`  // devices, i.e. sim.Group partitions
	Events            uint64  `json:"events"`
	SerialWallNs      int64   `json:"serial_wall_ns"`
	PartitionedWallNs int64   `json:"partitioned_wall_ns"`
	Speedup           float64 `json:"speedup"`
	Identical         bool    `json:"identical"`
}

// partitionRounds is the number of timed serial/partitioned pairs.
const partitionRounds = 5

// PartitionSpeedup runs the probe: one untimed warm-up (pools, heap
// growth — booked to whichever leg ran first before), then
// partitionRounds pairs alternating which leg goes first. On a 1-CPU
// host both legs run one worker and the ratio reads the probe's noise.
func PartitionSpeedup(s Scale) (*PartitionReport, error) {
	cfg := fleetSteady(s)
	workers := min(runtime.NumCPU(), cfg.Devices)
	ref, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &PartitionReport{Shards: workers, Pairs: cfg.Devices, Events: ref.Events, Identical: true}
	var walls [2][]time.Duration // [0] serial, [1] partitioned
	for i := 0; i < 2*partitionRounds; i++ {
		leg := (i/2 + i) % 2 // round i/2 runs both legs; the order flips each round
		c := cfg
		c.Workers = []int{1, workers}[leg]
		t0 := time.Now()
		res, err := fleet.Run(c)
		if err != nil {
			return nil, err
		}
		walls[leg] = append(walls[leg], time.Since(t0))
		rep.Identical = rep.Identical && reflect.DeepEqual(ref, res)
	}
	for _, w := range walls {
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	serial, part := walls[0][partitionRounds/2], walls[1][partitionRounds/2]
	rep.SerialWallNs, rep.PartitionedWallNs = serial.Nanoseconds(), part.Nanoseconds()
	rep.Speedup = float64(serial) / float64(part)
	return rep, nil
}
