// Package fio is the micro-benchmark driver behind the paper's basic
// performance results (Section V-B): QD-1 latency sweeps (Fig 7) and
// QD-1 bandwidth sweeps (Fig 8) over block I/O, MMIO and the 2B-SSD
// internal datapath.
package fio

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// pagesFor rounds a request size up to whole pages (block I/O is
// page-granular: a sub-page request still moves one page).
func pagesFor(bytes, pageSize int) int {
	n := (bytes + pageSize - 1) / pageSize
	if n < 1 {
		n = 1
	}
	return n
}

// BlockReadLatency measures the QD-1 average latency of block reads of
// `size` bytes on a fresh device (preconditioned so reads hit NAND).
func BlockReadLatency(mk func(*sim.Env) *device.Device, size, reps int) sim.Duration {
	e := sim.NewEnv()
	defer e.Shutdown()
	d := mk(e)
	ps := d.PageSize()
	n := pagesFor(size, ps)
	var total sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		buf := make([]byte, n*ps)
		if err := d.WritePages(p, 0, buf); err != nil {
			panic(fmt.Sprintf("fio precondition: %v", err))
		}
		if err := d.Drain(p); err != nil {
			panic(err)
		}
		for i := 0; i < reps; i++ {
			start := e.Now()
			if err := d.ReadPagesInto(p, 0, buf); err != nil {
				panic(err)
			}
			total += sim.Duration(e.Now() - start)
		}
	})
	e.Run()
	return total / sim.Duration(reps)
}

// BlockWriteLatency measures the QD-1 average latency of block writes.
func BlockWriteLatency(mk func(*sim.Env) *device.Device, size, reps int) sim.Duration {
	e := sim.NewEnv()
	defer e.Shutdown()
	d := mk(e)
	ps := d.PageSize()
	n := pagesFor(size, ps)
	buf := make([]byte, n*ps)
	var total sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			start := e.Now()
			if err := d.WritePages(p, ftl.LBA(i*n), buf); err != nil {
				panic(err)
			}
			total += sim.Duration(e.Now() - start)
		}
	})
	e.Run()
	return total / sim.Duration(reps)
}

// MMIOWriteLatency measures a plain MMIO store sequence of size bytes.
func MMIOWriteLatency(mk func(*sim.Env) *core.TwoBSSD, size, reps int, persistent bool) sim.Duration {
	e := sim.NewEnv()
	defer e.Shutdown()
	s := mk(e)
	buf := make([]byte, size)
	var total sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		pages := pagesFor(size, s.PageSize())
		if err := s.BAPin(p, 0, 0, 0, pages); err != nil {
			panic(err)
		}
		for i := 0; i < reps; i++ {
			start := e.Now()
			if err := s.Mmio().Write(p, 0, buf); err != nil {
				panic(err)
			}
			if persistent {
				if err := s.Mmio().Sync(p, 0, size); err != nil {
					panic(err)
				}
			}
			total += sim.Duration(e.Now() - start)
		}
	})
	e.Run()
	return total / sim.Duration(reps)
}

// MMIOReadLatency measures an MMIO load of size bytes, optionally
// through the read DMA engine.
func MMIOReadLatency(mk func(*sim.Env) *core.TwoBSSD, size, reps int, useDMA bool) sim.Duration {
	e := sim.NewEnv()
	defer e.Shutdown()
	s := mk(e)
	buf := make([]byte, size)
	var total sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		pages := pagesFor(size, s.PageSize())
		if err := s.BAPin(p, 0, 0, 0, pages); err != nil {
			panic(err)
		}
		for i := 0; i < reps; i++ {
			start := e.Now()
			if useDMA {
				if _, err := s.BAReadDMA(p, 0, buf); err != nil {
					panic(err)
				}
			} else {
				if err := s.Mmio().Read(p, 0, buf); err != nil {
					panic(err)
				}
			}
			total += sim.Duration(e.Now() - start)
		}
	})
	e.Run()
	return total / sim.Duration(reps)
}

// MBps converts (bytes, duration) to MB/s.
func MBps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// BlockBandwidth measures QD-1 sequential bandwidth for one request of
// reqBytes (reads preconditioned; writes measured to the flush).
func BlockBandwidth(mk func(*sim.Env) *device.Device, reqBytes int, write bool) float64 {
	e := sim.NewEnv()
	defer e.Shutdown()
	d := mk(e)
	ps := d.PageSize()
	n := pagesFor(reqBytes, ps)
	var took sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		buf := make([]byte, n*ps)
		if !write {
			if err := d.WritePages(p, 0, buf); err != nil {
				panic(err)
			}
			if err := d.Drain(p); err != nil {
				panic(err)
			}
		}
		start := e.Now()
		if write {
			if err := d.WritePages(p, 0, buf); err != nil {
				panic(err)
			}
			if err := d.Drain(p); err != nil {
				panic(err)
			}
		} else {
			if err := d.ReadPagesInto(p, 0, buf); err != nil {
				panic(err)
			}
		}
		took = sim.Duration(e.Now() - start)
	})
	e.Run()
	return MBps(int64(n*ps), took)
}

// InternalBandwidth measures the 2B-SSD internal datapath: BA_PIN for
// reads, BA_FLUSH for writes, chunked through the BA-buffer for
// requests larger than it (the paper measures exactly these calls).
func InternalBandwidth(mk func(*sim.Env) *core.TwoBSSD, reqBytes int, write bool) float64 {
	e := sim.NewEnv()
	defer e.Shutdown()
	s := mk(e)
	ps := s.PageSize()
	bufPages := s.BufferPages()
	totalPages := pagesFor(reqBytes, ps)
	var timed sim.Duration
	e.Go("fio", func(p *sim.Proc) {
		if !write {
			// Precondition NAND so pins read real pages.
			if err := s.Device().WritePages(p, 0, make([]byte, totalPages*ps)); err != nil {
				panic(err)
			}
			if err := s.Device().Drain(p); err != nil {
				panic(err)
			}
		}
		done := 0
		for done < totalPages {
			chunk := totalPages - done
			if chunk > bufPages {
				chunk = bufPages
			}
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
