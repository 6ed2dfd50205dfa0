package bench

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// latency sweep sizes (Fig 7): 8 B … 4 KB.
var latSizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// bandwidth sweep sizes (Fig 8): 4 KB … 16 MB.
var bwSizes = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Fig7a reproduces the read-latency sweep: block reads on DC-SSD and
// ULL-SSD versus MMIO and read-DMA on the 2B-SSD.
func Fig7a(r *Runner) *Table {
	t := &Table{
		ID: "fig7a", Title: "Read latency vs request size (QD1)",
		XLabel: "req size", Unit: "us",
		Series: []string{"DC-SSD", "ULL-SSD", "2B MMIO", "2B readDMA"},
		Notes: []string{
			"expected shape: MMIO wins below ~350B vs ULL and ~2KB vs DC;",
			"readDMA beats plain MMIO from ~2KB (paper: 2.6x at 4KB).",
		},
	}
	t.Rows = points(r, len(latSizes), func(i int) Row {
		size := latSizes[i]
		dc := blockLatency(DC, size, r.LatReps, false)
		ull := blockLatency(ULL, size, r.LatReps, false)
		mmio := mmioRead(SSD2B, size, r.LatReps, false)
		dma := mmioRead(SSD2B, size, r.LatReps, true)
		return Row{X: sizeLabel(size), Vals: []float64{dc.Micros(), ull.Micros(), mmio.Micros(), dma.Micros()}}
	})
	return t
}

// Fig7b reproduces the write-latency sweep: block writes versus MMIO
// and persistent MMIO (MMIO + BA_SYNC) on the 2B-SSD.
func Fig7b(r *Runner) *Table {
	t := &Table{
		ID: "fig7b", Title: "Write latency vs request size (QD1)",
		XLabel: "req size", Unit: "us",
		Series: []string{"DC-SSD", "ULL-SSD", "2B MMIO", "2B persistent MMIO"},
		Notes: []string{
			"expected shape: 8B MMIO ~0.63us (16.6x under block I/O);",
			"persistent MMIO +15% small, +47% at 4KB, still under ULL's 10us.",
		},
	}
	t.Rows = points(r, len(latSizes), func(i int) Row {
		size := latSizes[i]
		dc := blockLatency(DC, size, r.LatReps, true)
		ull := blockLatency(ULL, size, r.LatReps, true)
		mmio := mmioWrite(SSD2B, size, r.LatReps, false)
		pmmio := mmioWrite(SSD2B, size, r.LatReps, true)
		return Row{X: sizeLabel(size), Vals: []float64{dc.Micros(), ull.Micros(), mmio.Micros(), pmmio.Micros()}}
	})
	return t
}

// Fig8a reproduces the read-bandwidth sweep: block reads versus the
// 2B-SSD internal datapath (BA_PIN).
func Fig8a(r *Runner) *Table {
	t := &Table{
		ID: "fig8a", Title: "Read bandwidth vs request size (QD1)",
		XLabel: "req size", Unit: "MB/s",
		Series: []string{"DC-SSD", "ULL-SSD", "2B internal"},
		Notes: []string{
			"expected shape: ULL saturates PCIe (~3.2GB/s); 2B internal",
			"~1GB/s below ULL at >=4MB; DC approaches 2B at large sizes.",
		},
	}
	t.Rows = points(r, len(bwSizes), func(i int) Row {
		size := bwSizes[i]
		dc := blockBandwidth(DC, size, false)
		ull := blockBandwidth(ULL, size, false)
		internal := internalBandwidth(SSD2B, size, false)
		return Row{X: sizeLabel(size), Vals: []float64{dc, ull, internal}}
	})
	return t
}

// Fig8b reproduces the write-bandwidth sweep: block writes versus the
// internal datapath (BA_FLUSH).
func Fig8b(r *Runner) *Table {
	t := &Table{
		ID: "fig8b", Title: "Write bandwidth vs request size (QD1)",
		XLabel: "req size", Unit: "MB/s",
		Series: []string{"DC-SSD", "ULL-SSD", "2B internal"},
		Notes: []string{
			"expected shape: ULL PCIe-capped ~3.2GB/s; 2B internal beats",
			"DC by ~700MB/s at >=4MB (2.2 vs 1.5 GB/s).",
		},
	}
	t.Rows = points(r, len(bwSizes), func(i int) Row {
		size := bwSizes[i]
		dc := blockBandwidth(DC, size, true)
		ull := blockBandwidth(ULL, size, true)
		internal := internalBandwidth(SSD2B, size, true)
		return Row{X: sizeLabel(size), Vals: []float64{dc, ull, internal}}
	})
	return t
}

// qd1 is one QD-1 run of the paper's micro-benchmarks (Section V-B) on
// a fresh drive from mk: setup, then n timed ops on the setup proc.
func qd1[D any](mk func(*sim.Env) D, n int, setup func(*sim.Proc, D) error, op func(*sim.Proc, D, int) error) *Loop {
	e := sim.NewEnv()
	defer e.Shutdown()
	d := mk(e)
	return Closed{Env: e, Ops: n,
		Setup: func(p *sim.Proc) error { return setup(p, d) },
		Op:    func(p *sim.Proc, _, i int) error { return op(p, d, i) }}.must()
}

// pagesFor rounds a request size up to whole pages (block I/O is
// page-granular: a sub-page request still moves one page).
func pagesFor(bytes, pageSize int) int {
	return max(1, (bytes+pageSize-1)/pageSize)
}

// writeDrained writes buf from LBA 0 and waits until it is on NAND: the
// precondition of a read, or a timed write.
func writeDrained(p *sim.Proc, d *device.Device, buf []byte) error {
	if err := d.WritePages(p, 0, buf); err != nil {
		return err
	}
	return d.Drain(p)
}

// blockLatency is the mean latency of size-byte block reads of LBA 0,
// preconditioned so they hit NAND, or of writes to successive LBAs.
func blockLatency(mk func(*sim.Env) *device.Device, size, reps int, write bool) sim.Duration {
	var n int
	var buf []byte
	return qd1(mk, reps, func(p *sim.Proc, d *device.Device) error {
		n = pagesFor(size, d.PageSize())
		if buf = make([]byte, n*d.PageSize()); write {
			return nil
		}
		return writeDrained(p, d, buf)
	}, func(p *sim.Proc, d *device.Device, i int) error {
		if write {
			return d.WritePages(p, ftl.LBA(i*n), buf)
		}
		return d.ReadPagesInto(p, 0, buf)
	}).Lat.Mean()
}

// pinFor pins enough pages of BA-buffer offset 0 for size bytes.
func pinFor(size int) func(*sim.Proc, *core.TwoBSSD) error {
	return func(p *sim.Proc, s *core.TwoBSSD) error { return s.BAPin(p, 0, 0, 0, pagesFor(size, s.PageSize())) }
}

// mmioWrite is the mean latency of a size-byte MMIO store sequence,
// made durable with BA_SYNC when persistent.
func mmioWrite(mk func(*sim.Env) *core.TwoBSSD, size, reps int, persistent bool) sim.Duration {
	buf := make([]byte, size)
	return qd1(mk, reps, pinFor(size), func(p *sim.Proc, s *core.TwoBSSD, _ int) error {
		if err := s.Mmio().Write(p, 0, buf); err != nil || !persistent {
			return err
		}
		return s.Mmio().Sync(p, 0, size)
	}).Lat.Mean()
}

// mmioRead is the mean latency of a size-byte MMIO load, or of a read
// DMA of the same bytes.
func mmioRead(mk func(*sim.Env) *core.TwoBSSD, size, reps int, useDMA bool) sim.Duration {
	buf := make([]byte, size)
	return qd1(mk, reps, pinFor(size), func(p *sim.Proc, s *core.TwoBSSD, _ int) error {
		if useDMA {
			_, err := s.BAReadDMA(p, 0, buf)
			return err
		}
		return s.Mmio().Read(p, 0, buf)
	}).Lat.Mean()
}

// MBps converts (bytes, duration) to MB/s.
func MBps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// blockBandwidth is the QD-1 sequential bandwidth of one request of
// reqBytes: a read of preconditioned pages, or a write timed to its
// drain.
func blockBandwidth(mk func(*sim.Env) *device.Device, reqBytes int, write bool) float64 {
	var buf []byte
	lp := qd1(mk, 1, func(p *sim.Proc, d *device.Device) error {
		if buf = make([]byte, pagesFor(reqBytes, d.PageSize())*d.PageSize()); write {
			return nil
		}
		return writeDrained(p, d, buf)
	}, func(p *sim.Proc, d *device.Device, _ int) error {
		if write {
			return writeDrained(p, d, buf)
		}
		return d.ReadPagesInto(p, 0, buf)
	})
	return MBps(int64(len(buf)), lp.Lat.Sum())
}

// internalBandwidth measures the 2B-SSD internal datapath: BA_PIN for
// reads, BA_FLUSH for writes, chunked through the BA-buffer for
// requests larger than it (the paper measures exactly these calls). It
// times half of each chunk's pin-and-flush, so it is no closed loop of
// whole ops.
func internalBandwidth(mk func(*sim.Env) *core.TwoBSSD, reqBytes int, write bool) float64 {
	e := sim.NewEnv()
	defer e.Shutdown()
	s := mk(e)
	ps := s.PageSize()
	bufPages := s.BufferPages()
	totalPages := pagesFor(reqBytes, ps)
	var timed sim.Duration
	e.Go("setup", func(p *sim.Proc) {
		if !write {
			// Precondition NAND so pins read real pages.
			if err := writeDrained(p, s.Device(), make([]byte, totalPages*ps)); err != nil {
				panic(err)
			}
		}
		for done := 0; done < totalPages; {
			chunk := min(totalPages-done, bufPages)
			t0 := e.Now()
			if err := s.BAPin(p, 0, 0, ftl.LBA(done), chunk); err != nil {
				panic(err)
			}
			if !write {
				timed += sim.Duration(e.Now() - t0) // BA_PIN = internal read
			}
			t1 := e.Now()
			if err := s.BAFlush(p, 0); err != nil {
				panic(err)
			}
			if write {
				timed += sim.Duration(e.Now() - t1) // BA_FLUSH = internal write
			}
			done += chunk
		}
	})
	e.Run()
	return MBps(int64(totalPages*ps), timed)
}
