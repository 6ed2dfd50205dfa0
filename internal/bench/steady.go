package bench

import (
	"runtime"

	"twobssd/internal/ftl"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// SteadyReport is the -benchjson steady-state allocation record: host
// allocations per simulated event over a sustained workload, measured
// after warm-up on an already-constructed stack. Construction costs —
// device/FTL/resource setup, first-touch page programming, proc-pool
// ramp — are excluded; this is the kernel's long-run allocation rate,
// the number the freelist/arena work drives toward zero.
type SteadyReport struct {
	Events         uint64  `json:"events"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// SteadyStateAllocs measures the steady-state rate on the paper's core
// loop: BA-WAL appends and commits on a 2B-SSD stack, with periodic
// block writes and reads through the data device so the NAND, FTL and
// device paths stay hot too.
func SteadyStateAllocs(s Scale) *SteadyReport {
	st := newStack(Log2B)
	defer st.env.Shutdown()
	var l *wal.Log
	page := make([]byte, st.ssd.PageSize())
	phase := func(records int) {
		st.env.Go("steady", func(p *sim.Proc) {
			if l == nil {
				f, err := st.logFS.Create("steadylog", 8<<20)
				if err != nil {
					panic(err)
				}
				l, err = wal.Open(st.env, st.logConfig(f, 0, 1))
				if err != nil {
					panic(err)
				}
			}
			rec := make([]byte, 128)
			dev := st.dataFS.Device()
			for i := 0; i < records; i++ {
				lsn, err := l.Append(p, rec)
				if err != nil {
					panic(err)
				}
				if err := l.Commit(p, lsn); err != nil {
					panic(err)
				}
				if i%16 == 0 {
					lba := ftl.LBA(i % 64)
					if err := dev.WritePages(p, lba, page); err != nil {
						panic(err)
					}
					if err := dev.ReadPagesInto(p, lba, page); err != nil {
						panic(err)
					}
				}
			}
		})
		st.env.Run()
	}
	records := int(s.AppOps)
	if records < 1000 {
		records = 1000
	}
	phase(records / 4) // warm-up: pools, arenas and NAND first-touch
	ev0 := st.env.Events()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase(records)
	runtime.ReadMemStats(&ms1)
	rep := &SteadyReport{
		Events: st.env.Events() - ev0,
		Allocs: ms1.Mallocs - ms0.Mallocs,
	}
	if rep.Events > 0 {
		rep.AllocsPerEvent = float64(rep.Allocs) / float64(rep.Events)
	}
	return rep
}
