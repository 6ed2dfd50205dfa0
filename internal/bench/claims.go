package bench

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// CommitOverhead quantifies the paper's "transaction commit overhead
// reduced by up to 26x" claim: the time to persist one small log
// record (append + commit) under each log-device configuration.
func CommitOverhead(r *Runner) *Table {
	t := &Table{
		ID: "commit", Title: "Cost to persist a 128B log record (append+commit)",
		XLabel: "config", Unit: "us",
		Series: []string{"persist cost", "vs 2B-SSD (x)"},
		Notes:  []string{"paper claim: up to 26x reduction vs block logging."},
	}
	measure := func(cfg LogDevice) sim.Duration {
		st := newStack(cfg)
		defer st.env.Shutdown()
		var avg sim.Duration
		st.env.Go("t", func(p *sim.Proc) {
			f, err := st.logFS.Create("commitlog", 8<<20)
			if err != nil {
				panic(err)
			}
			l, err := wal.Open(st.env, st.logConfig(f, 0, 1))
			if err != nil {
				panic(err)
			}
			// Warm up: the first append pays the one-time BA_PIN of the
			// log segment, which is not per-commit cost.
			if lsn, err := l.Append(p, make([]byte, 128)); err == nil {
				if err := l.Commit(p, lsn); err != nil {
					panic(err)
				}
			} else {
				panic(err)
			}
			const reps = 50
			var total sim.Duration
			for i := 0; i < reps; i++ {
				start := st.env.Now()
				lsn, err := l.Append(p, make([]byte, 128))
				if err != nil {
					panic(err)
				}
				if err := l.Commit(p, lsn); err != nil {
					panic(err)
				}
				total += sim.Duration(st.env.Now() - start)
			}
			avg = total / reps
		})
		st.env.Run()
		return avg
	}
	cfgs := []LogDevice{LogDC, LogULL, Log2B}
	costs := points(r, len(cfgs), func(i int) sim.Duration { return measure(cfgs[i]) })
	// measure is deterministic per configuration, so the Log2B point IS
	// the BA reference the ratios normalize by.
	ba := costs[2]
	for i, cfg := range cfgs {
		t.AddRow(cfg.String(), costs[i].Micros(), float64(costs[i])/float64(ba))
	}
	return t
}

// WAFReduction demonstrates the Section IV-A claim: BA-WAL removes the
// repeated partial-log-page NAND writes of block logging. Both sides
// persist the same stream of small records — enough to fill one whole
// BA-buffer half — and we count NAND page programs on the log device.
// Block logging rewrites the containing 4KB page on every commit; the
// BA-WAL programs each log page exactly once, at BA_FLUSH time.
func WAFReduction(r *Runner) *Table {
	t := &Table{
		ID: "waf", Title: "Log-device NAND writes for a 4MB stream of 256B commits",
		XLabel: "config", Unit: "pages",
		Series: []string{"NAND page programs", "records persisted"},
		Notes: []string{
			"block WAL: ~1 NAND program per commit (page rewrite);",
			"BA-WAL: ~1 program per filled log page (single write, low WAF).",
		},
	}
	const recBytes = 256
	segBytes := core.DefaultConfig().BABufferBytes / 2 // 4 MB
	records := segBytes / (recBytes + 16)
	run := func(cfg LogDevice) (nand uint64, n int) {
		st := newStack(cfg)
		defer st.env.Shutdown()
		st.env.Go("t", func(p *sim.Proc) {
			f, err := st.logFS.Create("waflog", int64(2*segBytes))
			if err != nil {
				panic(err)
			}
			wcfg := st.logConfig(f, 0, 1)
			wcfg.SegmentBytes = segBytes // the block side pads at the same boundary
			l, err := wal.Open(st.env, wcfg)
			if err != nil {
				panic(err)
			}
			rec := make([]byte, recBytes) // Append copies; reuse one buffer
			for i := 0; i < records; i++ {
				lsn, err := l.Append(p, rec)
				if err != nil {
					panic(err)
				}
				if err := l.Commit(p, lsn); err != nil {
					panic(err)
				}
			}
			if err := l.FlushToNAND(p); err != nil {
				panic(err)
			}
			if err := st.logFS.Device().Drain(p); err != nil {
				panic(err)
			}
		})
		st.env.Run()
		// The ftl.* series sum over both drives of the stack: the count
		// is the log device's only because the data drive took no write.
		reg := obs.Of(st.env).Registry()
		data := st.dataFS.Device().Profile().Name + ".pages_written"
		if n := reg.Counter(data).Value(); n != 0 {
			panic(fmt.Sprintf("bench: waf: the data drive wrote %d pages (%s); the NAND count is not the log device's", n, data))
		}
		return reg.Counter("ftl.nand_page_writes").Value(), records
	}
	cfgs := []LogDevice{LogULL, Log2B}
	t.Rows = points(r, len(cfgs), func(i int) Row {
		nand, n := run(cfgs[i])
		return Row{X: cfgs[i].String(), Vals: []float64{float64(nand), float64(n)}}
	})
	return t
}

// MixedWorkload verifies the discussion-section claim that enabling
// the memory interface does not degrade block I/O: block-read latency
// on the 2B-SSD with and without a concurrent MMIO logging stream.
func MixedWorkload(r *Runner) *Table {
	t := &Table{
		ID: "mixed", Title: "Block read latency with concurrent memory-interface traffic",
		XLabel: "condition", Unit: "us",
		Series: []string{"4KB block read"},
		Notes:  []string{"paper discussion: block I/O shows no degradation."},
	}
	run := func(withMMIO bool) sim.Duration {
		e := sim.NewEnv()
		defer e.Shutdown()
		ssd := SSD2B(e)
		var lat sim.Duration
		e.Go("t", func(p *sim.Proc) {
			if err := ssd.Device().WritePages(p, 0, make([]byte, ssd.PageSize())); err != nil {
				panic(err)
			}
			if err := ssd.Device().Drain(p); err != nil {
				panic(err)
			}
			if withMMIO {
				if err := ssd.BAPin(p, 0, 0, 1000, 16); err != nil {
					panic(err)
				}
				e.Go("logger", func(w *sim.Proc) {
					for i := 0; i < 200; i++ {
						if err := ssd.Mmio().Write(w, (i%16)*64, make([]byte, 64)); err != nil {
							panic(err)
						}
						if err := ssd.Mmio().Sync(w, (i%16)*64, 64); err != nil {
							panic(err)
						}
					}
				})
			}
			var total sim.Duration
			page := make([]byte, ssd.PageSize())
			for i := 0; i < r.LatReps; i++ {
				start := e.Now()
				if err := ssd.Device().ReadPagesInto(p, 0, page); err != nil {
					panic(err)
				}
				total += sim.Duration(e.Now() - start)
			}
			lat = total / sim.Duration(r.LatReps)
		})
		e.Run()
		return lat
	}
	lats := points(r, 2, func(i int) sim.Duration { return run(i == 1) })
	t.AddRow("block only", lats[0].Micros())
	t.AddRow("block + MMIO log", lats[1].Micros())
	return t
}

// Recovery measures the power-loss protection subsystem against how
// much of the BA-buffer the mapping table maps: dump duration, energy
// used versus the capacitor budget, power-on time, whether that
// power-on erased the dump area, and how many power cycles an erased
// dump area takes before it must be erased again — the quantities that
// justify "no risk of data loss". The whole-buffer row is the case the
// capacitors are sized for.
func Recovery(r *Runner) *Table {
	t := &Table{
		ID: "recovery", Title: "Power-loss dump, power-on and dump-area erase vs mapped BA-buffer (8MB)",
		XLabel: "mapped",
		Series: []string{"dump_us", "energy_mJ", "power_on_us", "erased", "cycles/erase"},
		Notes: []string{
			fmt.Sprintf("capacitor budget %.1f mJ; power_on_us is the first power-on after a dump into an erased area, erased is 1 when it erased the area",
				core.DefaultConfig().CapacitorEnergyJ()*1e3),
		},
	}
	rows := []struct {
		name  string
		pages int
	}{{"none", 0}, {"2MB window", 512}, {"half", 1024}, {"whole", 2048}}
	vals := points(r, len(rows), func(i int) []float64 { return recoveryRow(rows[i].pages) })
	for i, row := range rows {
		t.AddRow(row.name, vals[i]...)
	}
	return t
}

// recoveryRow power-cycles a 2B-SSD whose table maps the first pages of
// the buffer until a power-on erases the dump area, and reports the
// first cycle and the cycle count.
func recoveryRow(pages int) []float64 {
	e := sim.NewEnv()
	defer e.Shutdown()
	ssd := SSD2B(e)
	reg := obs.Of(e).Registry()
	var out []float64
	e.Go("t", func(p *sim.Proc) {
		if pages > 0 {
			if err := ssd.BAPin(p, 0, 0, 0, pages); err != nil {
				panic(err)
			}
		}
		for cycles := 1; ; cycles++ {
			rep, err := ssd.PowerLoss(p)
			if err != nil {
				panic(err)
			}
			erases := reg.Counter("nand.block_erases").Value()
			start := e.Now()
			if err := ssd.PowerOn(p); err != nil {
				panic(err)
			}
			erased := reg.Counter("nand.block_erases").Value() > erases
			if cycles == 1 {
				out = []float64{rep.DumpDuration.Micros(), rep.EnergyUsedJ * 1e3, sim.Duration(e.Now() - start).Micros(), 0, 0}
				if erased {
					out[3] = 1
				}
			}
			if erased {
				out[4] = float64(cycles)
				return
			}
		}
	})
	e.Run()
	return out
}
