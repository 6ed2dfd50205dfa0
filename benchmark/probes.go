package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// ProbeResult is what timing one layer call gave, per call.
type ProbeResult struct {
	Name   string
	Calls  int
	SimNs  float64 // virtual time inside the call, as its caller sees it
	HostNs float64 // wall time, background work the call set off included
	Events float64 // kernel events, likewise
	Allocs float64
	Below  map[string]float64 // registry counters that moved, per call
}

// runProbe builds the op's stack in a fresh environment and times N
// calls from a benchmark process: virtual time by clock deltas around
// each call, wall time and events around each call plus the drain that
// follows the last one.
func runProbe(op ProbeOp) (ProbeResult, error) {
	res := ProbeResult{Name: op.Name, Calls: op.N}
	s := NewSim()
	defer s.Close()
	var (
		perr           error
		simNs, hostNs  int64
		events         uint64
		before, after  Counts
		drainFrom      time.Time
		drainEv        uint64
		mallocs0, done uint64
	)
	s.Go("probe", func(p *Proc) {
		call, pre, err := op.Build(s, p)
		if err != nil {
			perr = err
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs0 = ms.Mallocs
		before = s.Counts()
		for i := 0; i < op.N; i++ {
			if pre != nil {
				if perr = pre(p, i); perr != nil {
					return
				}
			}
			v0, e0, t0 := s.NowNs(), s.Events(), time.Now()
			if perr = call(p, i); perr != nil {
				return
			}
			hostNs += int64(time.Since(t0))
			simNs += s.NowNs() - v0
			events += s.Events() - e0
			done++
		}
		drainFrom, drainEv = time.Now(), s.Events()
	})
	if err := s.Run(); err != nil {
		return res, fmt.Errorf("probe %s: %w", op.Name, err)
	}
	if perr != nil {
		return res, fmt.Errorf("probe %s: %w", op.Name, perr)
	}
	hostNs += int64(time.Since(drainFrom))
	events += s.Events() - drainEv
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after = s.Counts()
	n := float64(done)
	res.SimNs, res.HostNs, res.Events = float64(simNs)/n, float64(hostNs)/n, float64(events)/n
	res.Allocs = float64(ms.Mallocs-mallocs0) / n
	res.Below = map[string]float64{}
	for k, v := range after.Sub(before).C {
		if v > 0 {
			res.Below[k] = float64(v) / n
		}
	}
	return res, nil
}

const kernelProbeEvents = 400000

func runKernelProbe(kp KernelProbe) ProbeResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	units := kp.Run(kernelProbeEvents)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return ProbeResult{
		Name: kp.Name, Calls: int(units),
		HostNs: float64(wall) / float64(units),
		Allocs: float64(m1.Mallocs-m0.Mallocs) / float64(units),
		Events: 1,
	}
}

// Probes holds every probe result and the self costs derived from them.
type Probes struct {
	By   map[string]ProbeResult
	Ops  []ProbeOp
	Self map[string]float64 // host ns of a call spent in its own layer
	Unit map[string]float64 // the same per unit of the op's counter
}

// runProbes times every layer call and the bare kernel.
func runProbes() (*Probes, error) {
	ps := &Probes{By: map[string]ProbeResult{}, Ops: ProbeOps(), Self: map[string]float64{}, Unit: map[string]float64{}}
	for _, kp := range KernelProbes() {
		ps.By[kp.Name] = runKernelProbe(kp)
	}
	for _, op := range ps.Ops {
		res, err := runProbe(op)
		if err != nil {
			return nil, err
		}
		ps.By[op.Name] = res
	}
	ps.selfCosts()
	return ps, nil
}

// viaVFS maps the vfs calls, which have no registry series, to the
// device commands they issue one-to-one: layers above vfs reach the
// device only through it.
var viaVFS = map[string]string{
	"vfs.write_at": "device.write_cmds",
	"vfs.read_at":  "device.read_cmds",
	"vfs.sync":     "device.flush_cmds",
}

func aboveVFS(layer string) bool { return layer == "wal" || layer == "lsm" }

// selfCosts splits each call's inclusive wall time: the kernel's share
// is its events at the handoff cost per event; every call it made
// further down (seen as registry counters moving during the probe) is
// charged at that call's own self cost; the rest is the layer's own.
// Unit is that self cost per unit of the op's counter — per page for
// the calls whose counter counts pages. ProbeOps lists lower layers
// first, so one pass suffices.
func (ps *Probes) selfCosts() {
	perEvent := ps.By["sim.handoff"].HostNs
	for _, op := range ps.Ops {
		res := ps.By[op.Name]
		self := res.HostNs - res.Events*perEvent
		for _, below := range ps.Ops {
			if below.Name == op.Name {
				break
			}
			counter := below.Counter
			if c, ok := viaVFS[below.Name]; ok && aboveVFS(op.Layer()) {
				counter = c
			}
			if counter == "" || below.Layer() == op.Layer() {
				continue
			}
			self -= res.Below[counter] * ps.Unit[below.Name]
		}
		ps.Self[op.Name] = math.Max(0, self)
		ps.Unit[op.Name] = ps.Self[op.Name] / math.Max(1, res.Below[op.Counter])
	}
}

// gcSelfNs is the ftl's own wall cost per page the collector relocates:
// what a random overwrite of a full array costs the ftl over an in-order
// one (which relocates nothing), per relocation it caused.
func (ps *Probes) gcSelfNs() float64 {
	reloc := ps.By["ftl.write_gc"].Below["ftl.gc_relocations"]
	if reloc == 0 {
		return 0
	}
	return math.Max(0, (ps.Self["ftl.write_gc"]-ps.Self["ftl.write_seq"])/reloc)
}

// gcWriteHostNs is the same difference on inclusive costs: the wall
// time a relocated page adds to a write, flash work included.
func (ps *Probes) gcWriteHostNs() float64 {
	gc := ps.By["ftl.write_gc"]
	reloc := gc.Below["ftl.gc_relocations"]
	if reloc == 0 {
		return 0
	}
	return math.Max(0, (gc.HostNs-ps.By["ftl.write_seq"].HostNs)/reloc)
}

// attribute spreads a traced run's wall time over the layers: calls
// into each layer (registry deltas of the run) times the call's self
// cost, the kernel at events times cost per event, and what is left —
// the driver, its shadow state and checks, and the error of this model
// — as unattributed. The shares sum to one by construction.
func (ps *Probes) attribute(r *RunResult) map[string]float64 {
	wall := float64(r.WallNs)
	calls := func(counter string) float64 { return float64(r.Delta.C[counter]) }
	share := map[string]float64{}
	for _, l := range layers {
		share[l] = 0
	}
	// Every workload keeps several processes runnable, so an event
	// usually resumes another process: the kernel is charged the
	// handoff cost per event, here and in the probes' self costs.
	share["sim"] = float64(r.Events) * ps.By["sim.handoff"].HostNs / wall
	for _, op := range ps.Ops {
		if op.Counter != "" {
			name := op.Name
			if alt, ok := r.ProbeAs[name]; ok {
				name = alt
			}
			share[op.Layer()] += calls(op.Counter) * ps.Unit[name] / wall
		}
	}
	share["ftl"] += calls("ftl.gc_relocations") * ps.gcSelfNs() / wall
	commits := calls("wal.commits")
	if commits > 0 { // the run sat on a log, hence on vfs
		for op, counter := range viaVFS {
			share["vfs"] += calls(counter) * ps.Unit[op] / wall
		}
		if calls("pcie.syncs") == 0 {
			// Block-mode log: the loop above charged BA commits.
			share["wal"] += commits * (ps.Self["wal.sync.commit"] - ps.Self["wal.ba.commit"]) / wall
		}
	}
	if r.LSMOps > 0 {
		gets := r.LSMOps - commits
		share["lsm"] += (commits*ps.Self["lsm.put"] + gets*ps.Self["lsm.get_mem"] +
			r.LSMLookups*math.Max(0, ps.Self["lsm.get_sst"]-ps.Self["lsm.get_mem"])) / wall
	}
	var sum float64
	for _, v := range share {
		sum += v
	}
	if r.Workload == "fleet-failover" {
		// The fleet has no probe of its own: it is what the layers
		// below it leave unexplained of a round.
		share["fleet"] = math.Max(0, 1-sum)
		sum += share["fleet"]
	}
	share["unattributed"] = 1 - sum
	return share
}

// layers are the repository's packages the benchmark reports on.
var layers = []string{"sim", "nand", "ftl", "device", "pcie", "core", "vfs", "wal", "lsm", "fleet"}
