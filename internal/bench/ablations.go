package bench

import (
	"strconv"

	"twobssd/internal/core"
	"twobssd/internal/obs"
	"twobssd/internal/pcie"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// AblationWriteCombining quantifies design decision 4 of DESIGN.md:
// the BAR manager maps BAR1 as write-combining memory. The ablation
// shrinks the WC burst to the raw 8B transaction size (uncombined
// stores) and re-measures MMIO write latency.
func AblationWriteCombining(r *Runner) *Table {
	t := &Table{
		ID: "ablation-wc", Title: "Write combining on BAR1 (ablation)",
		XLabel: "req size", Unit: "us",
		Series: []string{"WC on (64B bursts)", "WC off (8B stores)"},
	}
	noWC := func(e *sim.Env) *core.TwoBSSD {
		cfg := core.DefaultConfig()
		mm := pcie.DefaultConfig()
		mm.WCBurstBytes = 8
		mm.WCBufferBursts = 80 // same staging bytes, smaller granule
		cfg.MMIO = mm
		return core.New(e, cfg)
	}
	sizes := []int{64, 256, 1024, 4096}
	// One point per (size, WC on/off) cell.
	cells := points(r, len(sizes)*2, func(i int) sim.Duration {
		mk := SSD2B
		if i%2 == 1 {
			mk = noWC
		}
		return mmioWriteWith(mk, sizes[i/2], r.LatReps)
	})
	for si, size := range sizes {
		t.AddRow(sizeLabel(size), cells[2*si].Micros(), cells[2*si+1].Micros())
	}
	return t
}

func mmioWriteWith(mk func(*sim.Env) *core.TwoBSSD, size, reps int) sim.Duration {
	e := sim.NewEnv()
	defer e.Shutdown()
	ssd := mk(e)
	var total sim.Duration
	e.Go("t", func(p *sim.Proc) {
		pages := (size + ssd.PageSize() - 1) / ssd.PageSize()
		if pages < 1 {
			pages = 1
		}
		if err := ssd.BAPin(p, 0, 0, 0, pages); err != nil {
			panic(err)
		}
		buf := make([]byte, size)
		for i := 0; i < reps; i++ {
			start := e.Now()
			if err := ssd.Mmio().Write(p, 0, buf); err != nil {
				panic(err)
			}
			total += sim.Duration(e.Now() - start)
		}
	})
	e.Run()
	return total / sim.Duration(reps)
}

// AblationDoubleBuffering quantifies design decision 5: BA-WAL's
// double buffering overlaps logging with BA_FLUSH. The ablation runs
// the same append stream through a single pinned window.
func AblationDoubleBuffering(r *Runner) *Table {
	t := &Table{
		ID: "ablation-dbuf", Title: "BA-WAL double buffering (ablation)",
		XLabel: "config", Unit: "us total for 4-segment fill",
	}
	t.Series = []string{"elapsed"}
	run := func(eids ...core.EID) sim.Duration {
		st := newStack(Log2B)
		defer st.env.Shutdown()
		var elapsed sim.Duration
		st.env.Go("t", func(p *sim.Proc) {
			seg := st.ssd.Config().BABufferBytes / 4
			f, err := st.logFS.Create("log", int64(8*seg))
			if err != nil {
				panic(err)
			}
			// Entries given ⇒ halves used: same window, one entry or two.
			wcfg := st.logConfig(f, eids...)
			wcfg.SegmentBytes = seg
			l, err := wal.Open(st.env, wcfg)
			if err != nil {
				panic(err)
			}
			payload := make([]byte, 4096)
			start := st.env.Now()
			for l.AppendOff() < int64(4*seg)-8192 {
				lsn, err := l.Append(p, payload)
				if err != nil {
					panic(err)
				}
				if err := l.Commit(p, lsn); err != nil {
					panic(err)
				}
			}
			elapsed = sim.Duration(st.env.Now() - start)
		})
		st.env.Run()
		return elapsed
	}
	vals := points(r, 2, func(i int) sim.Duration {
		if i == 0 {
			return run(0, 1)
		}
		return run(0)
	})
	t.AddRow("double buffer", vals[0].Micros())
	t.AddRow("single buffer", vals[1].Micros())
	return t
}

// AblationGroupCommit quantifies design decision 7: the block-WAL
// baselines get standard group commit. The ablation compares fsync
// counts and throughput at 1 versus N concurrent committers.
func AblationGroupCommit(r *Runner) *Table {
	t := &Table{
		ID: "ablation-group", Title: "Group commit on the block WAL baseline (ablation)",
		XLabel: "clients", Unit: "",
		Series: []string{"commits/s", "fsyncs per commit"},
	}
	run := func(clients int) (float64, float64) {
		st := newStack(LogULL)
		defer st.env.Shutdown()
		st.env.Go("setup", func(p *sim.Proc) {
			f, err := st.logFS.Create("log", 8<<20)
			if err != nil {
				panic(err)
			}
			l, err := wal.Open(st.env, st.logConfig(f))
			if err != nil {
				panic(err)
			}
			for c := 0; c < clients; c++ {
				st.env.Go("client", func(w *sim.Proc) {
					for i := 0; i < 40; i++ {
						lsn, err := l.Append(w, make([]byte, 128))
						if err != nil {
							panic(err)
						}
						if err := l.Commit(w, lsn); err != nil {
							panic(err)
						}
					}
				})
			}
		})
		st.env.Run()
		reg := obs.Of(st.env).Registry()
		commits := float64(reg.Counter("wal.commits").Value())
		elapsed := sim.Duration(st.env.Now())
		return commits / elapsed.Seconds(),
			float64(reg.Counter("wal.flushes").Value()) / commits
	}
	counts := []int{1, 4, 16}
	t.Rows = points(r, len(counts), func(i int) Row {
		tput, fpc := run(counts[i])
		return Row{X: strconv.Itoa(counts[i]), Vals: []float64{tput, fpc}}
	})
	return t
}
