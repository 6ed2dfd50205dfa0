package bench

import (
	"fmt"

	"twobssd/internal/linkbench"
	"twobssd/internal/sim"
	"twobssd/internal/ycsb"
)

// fig9Configs are the Fig 9 series: two block baselines, BA-WAL on the
// 2B-SSD, and asynchronous commit as the theoretical maximum.
var fig9Configs = []LogDevice{LogDC, LogULL, Log2B, LogAsync}

// runPGLinkbench measures pglite throughput under LinkBench for one
// log-device configuration.
func runPGLinkbench(cfg LogDevice, s Scale) float64 {
	st := newStack(cfg)
	defer st.env.Shutdown() // release the point's grown kernel arrays
	var g *pgGraph
	st.env.Go("setup", func(p *sim.Proc) {
		var err error
		g, err = newPGGraph(st.env, p, st)
		if err != nil {
			panic(fmt.Sprintf("%v: %v", errSetupFailed, err))
		}
		gen := linkbench.NewGenerator(linkbench.Config{Nodes: s.Nodes, Seed: 11})
		if err := gen.Load(p, g, 2); err != nil {
			panic(err)
		}
	})
	st.env.Run()
	gens := make([]*linkbench.Generator, s.Clients)
	for c := range gens {
		gens[c] = linkbench.NewClient(linkbench.Config{Nodes: s.Nodes, Seed: 23}, c)
	}
	return timedClients(st.env, s, func(p *sim.Proc, c int) error {
		_, err := gens[c].Step(p, g)
		return err
	})
}

// runYCSB measures one KV engine's throughput under YCSB-A for one
// payload size and log-device configuration.
func runYCSB(engine string, cfg LogDevice, payload int, s Scale) float64 {
	st := newStack(cfg)
	defer st.env.Shutdown()
	var kv ycsb.KV
	st.env.Go("setup", func(p *sim.Proc) {
		var err error
		switch engine {
		case "lsm":
			kv, err = newLSMKV(st.env, p, st)
		case "kvaof":
			kv, err = newAOFKV(st.env, p, st)
		default:
			panic("unknown engine " + engine)
		}
		if err != nil {
			panic(fmt.Sprintf("%v: %v", errSetupFailed, err))
		}
		gen := ycsb.NewGenerator(ycsb.WorkloadA(s.Records, payload, 5))
		if err := gen.Load(p, kv); err != nil {
			panic(err)
		}
	})
	st.env.Run()
	gens := make([]*ycsb.Generator, s.Clients)
	for c := range gens {
		gens[c] = ycsb.NewClient(ycsb.WorkloadA(s.Records, payload, 31), c)
	}
	return timedClients(st.env, s, func(p *sim.Proc, c int) error { return gens[c].Step(p, kv) })
}

// timedClients runs s's clients over an engine whose load has gone idle,
// so that background flush timers the load left do not share the timed
// window, and returns their ops per second.
func timedClients(env *sim.Env, s Scale, op func(p *sim.Proc, c int) error) float64 {
	return Closed{Env: env, Clients: s.Clients, Ops: int(s.AppOps),
		Op: func(p *sim.Proc, c, _ int) error { return op(p, c) }}.must().Rate()
}

// Fig9PG reproduces the PostgreSQL/Linkbench panel of Fig 9.
func Fig9PG(r *Runner) *Table {
	t := &Table{
		ID: "fig9-pglite", Title: "pglite (PostgreSQL-like) / Linkbench throughput",
		XLabel: "workload", Unit: "ops/s",
		Series: []string{"DC-SSD", "ULL-SSD", "2B-SSD", "ASYNC"},
		Notes: []string{
			"expected shape: 2B-SSD 1.2-2.8x over DC-SSD, 75-95% of ASYNC.",
		},
	}
	vals := points(r, len(fig9Configs), func(i int) float64 {
		return runPGLinkbench(fig9Configs[i], r.Scale)
	})
	t.AddRow("linkbench", vals...)
	return t
}

// fig9Payloads are the YCSB payload sizes swept in Fig 9.
var fig9Payloads = []int{64, 256, 1024}

func fig9KV(r *Runner, engine, id, title string) *Table {
	t := &Table{
		ID: id, Title: title,
		XLabel: "payload", Unit: "ops/s",
		Series: []string{"DC-SSD", "ULL-SSD", "2B-SSD", "ASYNC"},
		Notes: []string{
			"expected shape: gain grows as payload shrinks (BA-WAL writes",
			"only what is needed; block WAL writes a 4KB page regardless).",
		},
	}
	// One point per (payload, config) cell of the sweep grid.
	nc := len(fig9Configs)
	cells := points(r, len(fig9Payloads)*nc, func(i int) float64 {
		return runYCSB(engine, fig9Configs[i%nc], fig9Payloads[i/nc], r.Scale)
	})
	for pi, payload := range fig9Payloads {
		t.AddRow(fmt.Sprintf("%dB", payload), cells[pi*nc:(pi+1)*nc]...)
	}
	return t
}

// Fig9LSM reproduces the RocksDB/YCSB-A panel of Fig 9.
func Fig9LSM(r *Runner) *Table {
	return fig9KV(r, "lsm", "fig9-lsm", "lsm (RocksDB-like) / YCSB-A throughput")
}

// Fig9AOF reproduces the Redis/YCSB-A panel of Fig 9.
func Fig9AOF(r *Runner) *Table {
	return fig9KV(r, "kvaof", "fig9-kvaof", "kvaof (Redis-like) / YCSB-A throughput")
}

// Fig10 compares the hybrid store (2B-SSD baseline) against the
// heterogeneous-memory architecture (PM + block SSD) and ASYNC on
// pglite/Linkbench, normalized to the baseline.
func Fig10(r *Runner) *Table {
	t := &Table{
		ID: "fig10", Title: "Heterogeneous memory vs hybrid store (pglite/Linkbench)",
		XLabel: "config", Unit: "normalized throughput",
		Series: []string{"throughput"},
		Notes: []string{
			"expected shape: all four configurations within ~1% of each",
			"other (the paper: PM+DC -0.6%, PM+ULL +0.4% vs baseline).",
		},
	}
	cfgs := []LogDevice{Log2B, LogPMULL, LogPMDC, LogAsync}
	vals := points(r, len(cfgs), func(i int) float64 { return runPGLinkbench(cfgs[i], r.Scale) })
	base := vals[0]
	t.AddRow("2B-SSD (base)", 1.0)
	t.AddRow("PM+ULL-SSD", vals[1]/base)
	t.AddRow("PM+DC-SSD", vals[2]/base)
	t.AddRow("ASYNC", vals[3]/base)
	return t
}
