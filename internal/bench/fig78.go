package bench

import (
	"fmt"

	"twobssd/internal/fio"
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
		dc := fio.BlockReadLatency(DC, size, r.LatReps)
		ull := fio.BlockReadLatency(ULL, size, r.LatReps)
		mmio := fio.MMIOReadLatency(SSD2B, size, r.LatReps, false)
		dma := fio.MMIOReadLatency(SSD2B, size, r.LatReps, true)
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
		dc := fio.BlockWriteLatency(DC, size, r.LatReps)
		ull := fio.BlockWriteLatency(ULL, size, r.LatReps)
		mmio := fio.MMIOWriteLatency(SSD2B, size, r.LatReps, false)
		pmmio := fio.MMIOWriteLatency(SSD2B, size, r.LatReps, true)
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
		dc := fio.BlockBandwidth(DC, size, false)
		ull := fio.BlockBandwidth(ULL, size, false)
		internal := fio.InternalBandwidth(SSD2B, size, false)
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
		dc := fio.BlockBandwidth(DC, size, true)
		ull := fio.BlockBandwidth(ULL, size, true)
		internal := fio.InternalBandwidth(SSD2B, size, true)
		return Row{X: sizeLabel(size), Vals: []float64{dc, ull, internal}}
	})
	return t
}
