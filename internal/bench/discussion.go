package bench

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/jfs"
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
		s := Stream{Device: cfg, Bytes: 32 << 20, WarmUp: true,
			Clients: r.Clients, Records: int(r.AppOps), Size: 128}
		return s.must().Lat
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
	const pages = 256
	page := make([]byte, ssd.PageSize())
	blockRead := Closed{Env: e, Ops: s.LatReps, Op: func(p *sim.Proc, _, i int) error {
		return ssd.Device().ReadPagesInto(p, ftl.LBA(i%pages), page)
	}}
	e.Go("setup", func(p *sim.Proc) {
		// Bulk write 1 MB through the block path.
		if err := writeDrained(p, ssd.Device(), make([]byte, pages*ssd.PageSize())); err != nil {
			panic(err)
		}
		for _, size := range []int{8, 64, 256, 1024} {
			blk, err := blockRead.On(p)
			if err != nil {
				panic(err)
			}
			// Preload: pin a slice of the bulk data.
			if err := ssd.BAPin(p, 0, 0, 0, 64); err != nil {
				panic(err)
			}
			buf := make([]byte, size)
			mm, err := Closed{Env: e, Ops: s.LatReps, Op: func(p *sim.Proc, _, i int) error {
				return ssd.Mmio().Read(p, (i%64)*ssd.PageSize(), buf)
			}}.On(p)
			if err != nil {
				panic(err)
			}
			if err := ssd.BAFlush(p, 0); err != nil {
				panic(err)
			}
			t.AddRow(sizeLabel(size), blk.Lat.Mean().Micros(), mm.Lat.Mean().Micros())
		}
	})
	e.Run()
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
		Series: []string{"commits/s+flush", "host bytes moved per log byte"},
		Notes: []string{
			"PMR flushes round-trip through the host (DMA read + block",
			"write); the 2B-SSD internal datapath moves the same data",
			"without touching the host interface.",
		},
	}
	run := func(mode wal.CommitMode) (float64, float64) {
		// The rate includes the flush of the last segment to NAND, the
		// host round trip this table is about: at quick scale the whole
		// run fits one segment, and the commits alone never flush.
		res := Stream{Device: Log2B, Bytes: int64(8 * (core.DefaultConfig().BABufferBytes / 2)),
			Clients: r.Clients, Records: int(r.AppOps), Size: 1024, Flush: true,
			Tune: func(c *wal.Config) { c.Mode = mode }}.must()
		reg, ssd := res.Reg, res.st.ssd
		appended := reg.Counter("wal.bytes_appended").Value()
		// Host interface traffic caused by log flushing: DMA reads of
		// the window plus block writes of the same bytes (PMR only).
		hostBytes := reg.Counter("2bssd.dma_bytes").Value() +
			reg.Counter(ssd.Device().Profile().Name+".pages_written").Value()*uint64(ssd.PageSize())
		return res.win.rate(float64(reg.Counter("wal.commits").Value())),
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
		lp := Closed{Env: st.env, Clients: r.Clients, Ops: int(r.AppOps) / r.Clients / 4 * r.Clients,
			Setup: func(p *sim.Proc) error {
				home, err := st.dataFS.Create("home", 1<<20)
				if err != nil {
					return err
				}
				// Commit-dominated run: checkpoints are rare (jbd2 defaults
				// to a 5s commit interval; the 16 MB journal — two ring files
				// of both BA-buffer halves — holds the whole run).
				store, err = jfs.Open(st.env, p, jfs.Config{Home: home,
					Log: st.ringConfig(2, 8<<20, 0, 1), CheckpointEvery: 1 << 20})
				if err != nil {
					return err
				}
				// Warm up: the first BA commit pays the one-time segment pin.
				w := store.Begin()
				w.WriteBlock(255, []byte("warmup"))
				return w.Commit(p)
			},
			Op: func(p *sim.Proc, c, i int) error {
				tx := store.Begin()
				tx.WriteBlock(uint32((c*31+i)%200), []byte("inode"))
				tx.WriteBlock(uint32((c*17+i)%200), []byte("bitmap"))
				return tx.Commit(p)
			}}.must()
		return lp.Rate(), lp.Lat.Mean().Micros()
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
			"devices' internal parallelism until a shared stage saturates",
			"(ULL-SSD: the 3.2 GB/s host link, 781 kIOPS of 4KB reads).",
		},
	}
	run := func(mk func(*sim.Env) *device.Device, qd int) float64 {
		e := sim.NewEnv()
		defer e.Shutdown()
		d := mk(e)
		pages := make([][]byte, qd)
		for w := range pages {
			pages[w] = make([]byte, d.PageSize())
		}
		return Closed{Env: e, Clients: qd, Ops: 50 * qd,
			Setup: func(p *sim.Proc) error { return writeDrained(p, d, make([]byte, 256*d.PageSize())) },
			Op: func(p *sim.Proc, w, i int) error {
				return d.ReadPagesInto(p, ftl.LBA((w*131+i*17)%256), pages[w])
			}}.must().Rate() / 1e3
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
