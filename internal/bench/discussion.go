package bench

import (
	"fmt"

	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/jfs"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// TailLatency quantifies the Section IV-A claim that a single NAND
// write per log page "optimizes tail latencies": the distribution of
// per-commit latencies for concurrent committers on a block WAL versus
// BA-WAL.
func TailLatency(r *Runner) *Table {
	t := &Table{
		ID: "tail", Title: "Commit latency distribution (128B records, concurrent clients)",
		XLabel: "config", Unit: "us",
		Series: []string{"mean", "p50", "p99", "p99.9", "max"},
		Notes: []string{
			"paper IV-A: one NAND write per log page optimizes tail latencies;",
			"block WAL commits queue behind fsyncs and stretch the tail.",
		},
	}
	run := func(cfg LogDevice) *histo.H {
		st := newStack(cfg)
		defer st.env.Shutdown() // release the point's grown kernel arrays
		h := &histo.H{}
		st.env.Go("setup", func(p *sim.Proc) {
			f, err := st.logFS.Create("taillog", 32<<20)
			if err != nil {
				panic(err)
			}
			l, err := wal.Open(st.env, st.logConfig(f, 0, 1))
			if err != nil {
				panic(err)
			}
			// Warm up: the first append pays the one-time BA_PIN of the
			// first log segment (not steady-state commit cost).
			if lsn, err := l.Append(p, make([]byte, 128)); err != nil {
				panic(err)
			} else if err := l.Commit(p, lsn); err != nil {
				panic(err)
			}
			per := int(r.AppOps) / r.Clients
			for c := 0; c < r.Clients; c++ {
				st.env.Go(fmt.Sprintf("c%d", c), func(w *sim.Proc) {
					rec := make([]byte, 128) // Append copies; reuse per client
					for i := 0; i < per; i++ {
						start := st.env.Now()
						lsn, err := l.Append(w, rec)
						if err != nil {
							panic(err)
						}
						if err := l.Commit(w, lsn); err != nil {
							panic(err)
						}
						h.Observe(sim.Duration(st.env.Now() - start))
					}
				})
			}
		})
		st.env.Run()
		return h
	}
	cfgs := []LogDevice{LogDC, LogULL, Log2B}
	t.Rows = points(r, len(cfgs), func(i int) Row {
		h := run(cfgs[i])
		return Row{X: cfgs[i].String(), Vals: []float64{h.Mean().Micros(), h.P50().Micros(),
			h.P99().Micros(), h.P999().Micros(), h.Max().Micros()}}
	})
	return t
}

// SmallRead reproduces the Section VI "opposite case": bulk data is
// written with the powerful block path, preloaded (pinned) into the
// BA-buffer, and then read back in small pieces — where byte-granular
// MMIO loads avoid reading a whole 4 KB page per access.
func SmallRead(r *Runner) *Table { return single(r, smallRead) }

func smallRead(s Scale) *Table {
	t := &Table{
		ID: "smallread", Title: "Bulk write + small reads (Section VI discussion)",
		XLabel: "read size", Unit: "us",
		Series: []string{"block read", "MMIO read (pinned)"},
		Notes: []string{
			"with preloading, small reads skip the page-granular block path;",
			"applications need not read a whole page to get several bytes.",
		},
	}
	e := sim.NewEnv()
	defer e.Shutdown()
	ssd := SSD2B(e)
	type point struct {
		size        int
		block, mmio sim.Duration
	}
	sizes := []int{8, 64, 256, 1024}
	var points []point
	e.Go("t", func(p *sim.Proc) {
		// Bulk write 1 MB through the block path.
		const pages = 256
		if err := ssd.Device().WritePages(p, 0, make([]byte, pages*ssd.PageSize())); err != nil {
			panic(err)
		}
		if err := ssd.Device().Drain(p); err != nil {
			panic(err)
		}
		page := make([]byte, ssd.PageSize())
		for _, size := range sizes {
			var blk sim.Duration
			for i := 0; i < s.LatReps; i++ {
				start := e.Now()
				if err := ssd.Device().ReadPagesInto(p, ftl.LBA(i%pages), page); err != nil {
					panic(err)
				}
				blk += sim.Duration(e.Now() - start)
			}
			blk /= sim.Duration(s.LatReps)
			// Preload: pin a slice of the bulk data.
			if err := ssd.BAPin(p, 0, 0, 0, 64); err != nil {
				panic(err)
			}
			var mm sim.Duration
			buf := make([]byte, size)
			for i := 0; i < s.LatReps; i++ {
				start := e.Now()
				if err := ssd.Mmio().Read(p, (i%64)*ssd.PageSize(), buf); err != nil {
					panic(err)
				}
				mm += sim.Duration(e.Now() - start)
			}
			mm /= sim.Duration(s.LatReps)
			if err := ssd.BAFlush(p, 0); err != nil {
				panic(err)
			}
			points = append(points, point{size: size, block: blk, mmio: mm})
		}
	})
	e.Run()
	for _, pt := range points {
		t.AddRow(sizeLabel(pt.size), pt.block.Micros(), pt.mmio.Micros())
	}
	return t
}

// PMRComparison is an extension experiment for the Section VII related
// work: the same BA-style logging on a 2B-SSD versus on an NVMe
// "Persistent Memory Region" device. Both give byte-addressable,
// capacitor-backed commits; only the 2B-SSD has an internal
// NVRAM<->NAND datapath, so the PMR device pays a host round trip
// (DMA read + block write) for every filled segment.
func PMRComparison(r *Runner) *Table {
	t := &Table{
		ID: "pmr", Title: "2B-SSD vs PMR device: BA-style logging (Section VII)",
		XLabel: "device", Unit: "",
		Series: []string{"commits/s", "host bytes moved per log byte"},
		Notes: []string{
			"PMR flushes round-trip through the host (DMA read + block",
			"write); the 2B-SSD internal datapath moves the same data",
			"without touching the host interface.",
		},
	}
	run := func(mode wal.CommitMode) (float64, float64) {
		st := newStack(Log2B)
		defer st.env.Shutdown()
		var l *wal.Log
		var appended uint64
		st.env.Go("setup", func(p *sim.Proc) {
			seg := st.ssd.Config().BABufferBytes / 2
			f, err := st.logFS.Create("pmrlog", int64(8*seg))
			if err != nil {
				panic(err)
			}
			wcfg := st.logConfig(f, 0, 1)
			wcfg.Mode = mode
			l, err = wal.Open(st.env, wcfg)
			if err != nil {
				panic(err)
			}
			for c := 0; c < r.Clients; c++ {
				st.env.Go(fmt.Sprintf("c%d", c), func(w *sim.Proc) {
					payload := make([]byte, 1024)
					for i := int64(0); i < r.AppOps/int64(r.Clients); i++ {
						lsn, err := l.Append(w, payload)
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
		st.env.Go("drain", func(p *sim.Proc) {
			if err := l.FlushToNAND(p); err != nil {
				panic(err)
			}
		})
		st.env.Run()
		reg := obs.Of(st.env).Registry()
		appended = reg.Counter("wal.bytes_appended").Value()
		elapsed := sim.Duration(st.env.Now())
		// Host interface traffic caused by log flushing: DMA reads of
		// the window plus block writes of the same bytes (PMR only).
		hostBytes := reg.Counter("2bssd.dma_bytes").Value() +
			reg.Counter(st.ssd.Device().Profile().Name+".pages_written").Value()*uint64(st.ssd.PageSize())
		return float64(reg.Counter("wal.commits").Value()) / elapsed.Seconds(),
			float64(hostBytes) / float64(appended)
	}
	modes := []wal.CommitMode{wal.BA, wal.PMR}
	t.Rows = points(r, len(modes), func(i int) Row {
		tput, host := run(modes[i])
		x := "2B-SSD (BA-WAL)"
		if modes[i] == wal.PMR {
			x = "PMR device"
		}
		return Row{X: x, Vals: []float64{tput, host}}
	})
	return t
}

// Journaling measures the paper's other motivating workload (Section
// IV: "2B-SSD is also a good fit for file system journaling"): a
// jbd2-style metadata journal committing 1-4 block transactions, block
// WAL versus BA-WAL.
func Journaling(r *Runner) *Table {
	t := &Table{
		ID: "journal", Title: "File-system journaling (jbd2-style), txns/s",
		XLabel: "config", Unit: "",
		Series: []string{"txns/s", "avg commit (us)"},
		Notes: []string{
			"whole 4KB blocks are journaled (no byte-size advantage);",
			"the BA win here is pure commit latency.",
		},
	}
	run := func(cfg LogDevice) (float64, float64) {
		st := newStack(cfg)
		defer st.env.Shutdown()
		var store *jfs.Store
		var startAt sim.Time
		st.env.Go("setup", func(p *sim.Proc) {
			home, err := st.dataFS.Create("home", 1<<20)
			if err != nil {
				panic(err)
			}
			// Commit-dominated run: checkpoints are rare (jbd2 defaults
			// to a 5s commit interval; the 16 MB journal — two ring files
			// of both BA-buffer halves — holds the whole run).
			store, err = jfs.Open(st.env, p, jfs.Config{Home: home,
				Log: st.ringConfig(2, 8<<20, 0, 1), CheckpointEvery: 1 << 20})
			if err != nil {
				panic(err)
			}
			// Warm up: the first BA commit pays the one-time segment pin.
			w := store.Begin()
			w.WriteBlock(255, []byte("warmup"))
			if err := w.Commit(p); err != nil {
				panic(err)
			}
			startAt = st.env.Now()
			per := int(r.AppOps) / r.Clients / 4
			for c := 0; c < r.Clients; c++ {
				c := c
				st.env.Go(fmt.Sprintf("c%d", c), func(w *sim.Proc) {
					for i := 0; i < per; i++ {
						tx := store.Begin()
						tx.WriteBlock(uint32((c*31+i)%200), []byte("inode"))
						tx.WriteBlock(uint32((c*17+i)%200), []byte("bitmap"))
						if err := tx.Commit(w); err != nil {
							panic(err)
						}
					}
				})
			}
		})
		st.env.Run()
		elapsed := sim.Duration(st.env.Now() - startAt)
		txns := obs.Of(st.env).Registry().Counter("jfs.txns").Value() - 1
		return float64(txns) / elapsed.Seconds(),
			float64(elapsed.Micros()) / float64(txns)
	}
	cfgs := []LogDevice{LogDC, LogULL, Log2B}
	t.Rows = points(r, len(cfgs), func(i int) Row {
		tput, avg := run(cfgs[i])
		return Row{X: cfgs[i].String(), Vals: []float64{tput, avg}}
	})
	return t
}

// QueueDepth is an extension beyond the paper's QD-1 sweeps: 4 KB read
// IOPS versus queue depth on both block baselines, showing where each
// device saturates (the paper's Fig 7/8 fix QD=1).
func QueueDepth(r *Runner) *Table {
	t := &Table{
		ID: "qd", Title: "4KB random-read IOPS vs queue depth (extension)",
		XLabel: "queue depth", Unit: "kIOPS",
		Series: []string{"DC-SSD", "ULL-SSD"},
		Notes: []string{
			"beyond the paper's QD-1 methodology: concurrency exposes the",
			"devices' internal parallelism until firmware cores saturate.",
		},
	}
	run := func(mk func(*sim.Env) *device.Device, qd int) float64 {
		e := sim.NewEnv()
		defer e.Shutdown()
		d := mk(e)
		const perWorker = 50
		var lastDone sim.Time
		e.Go("setup", func(p *sim.Proc) {
			if err := d.WritePages(p, 0, make([]byte, 256*d.PageSize())); err != nil {
				panic(err)
			}
			if err := d.Drain(p); err != nil {
				panic(err)
			}
			for w := 0; w < qd; w++ {
				w := w
				e.Go(fmt.Sprintf("q%d", w), func(pr *sim.Proc) {
					page := make([]byte, d.PageSize())
					for i := 0; i < perWorker; i++ {
						lba := ftl.LBA((w*131 + i*17) % 256)
						if err := d.ReadPagesInto(pr, lba, page); err != nil {
							panic(err)
						}
					}
					if e.Now() > lastDone {
						lastDone = e.Now()
					}
				})
			}
		})
		e.Run()
		total := float64(qd * perWorker)
		return total / sim.Duration(lastDone).Seconds() / 1e3
	}
	qds := []int{1, 2, 4, 8, 16, 32}
	// One point per (queue depth, device) cell.
	cells := points(r, len(qds)*2, func(i int) float64 {
		mk := DC
		if i%2 == 1 {
			mk = ULL
		}
		return run(mk, qds[i/2])
	})
	for qi, qd := range qds {
		t.AddRow(fmt.Sprintf("%d", qd), cells[2*qi], cells[2*qi+1])
	}
	return t
}
