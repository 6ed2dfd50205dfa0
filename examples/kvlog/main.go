// kvlog runs the same LSM key-value workload twice — once with a
// conventional block WAL on the ULL-SSD and once with BA-WAL on the
// 2B-SSD — and prints the throughput and commit-cost difference the
// paper's Fig 9 reports.
package main

import (
	"fmt"

	"twobssd"
	"twobssd/internal/core"
	"twobssd/internal/lsm"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

const (
	nOps    = 4000
	clients = 8
	payload = 128
)

func run(mode wal.CommitMode) (opsPerSec float64) {
	env := sim.NewEnv()
	dataFS := vfs.New(twobssd.NewDevice(env, twobssd.ULLSSD()))

	cfg := lsm.Config{
		DataFS:        dataFS,
		WALMode:       mode,
		MemtableBytes: 1 << 20,
		WALBytes:      2 << 20,
	}
	if mode == wal.BA {
		// Two EID pairs: each log file double-buffers across one.
		cfg.SSD = core.New(env, core.DefaultConfig())
		cfg.LogFS = vfs.New(cfg.SSD.Device())
		cfg.EIDs = []core.EID{0, 1, 2, 3}
	} else {
		prof := twobssd.ULLSSD()
		prof.Name = "log-" + prof.Name
		cfg.LogFS = vfs.New(twobssd.NewDevice(env, prof))
	}

	var db *lsm.DB
	env.Go("setup", func(p *sim.Proc) {
		var err error
		db, err = lsm.Open(env, p, cfg)
		if err != nil {
			panic(err)
		}
		for c := 0; c < clients; c++ {
			c := c
			env.Go(fmt.Sprintf("client%d", c), func(w *sim.Proc) {
				val := make([]byte, payload)
				for i := 0; i < nOps/clients; i++ {
					key := []byte(fmt.Sprintf("c%d-key-%06d", c, i))
					if err := db.Put(w, key, val); err != nil {
						panic(err)
					}
				}
			})
		}
	})
	env.Run()
	elapsed := sim.Duration(env.Now())
	return float64(nOps) / elapsed.Seconds()
}

func main() {
	block := run(wal.Sync)
	ba := run(wal.BA)
	fmt.Printf("LSM store, %d puts of %dB across %d clients:\n", nOps, payload, clients)
	fmt.Printf("  block WAL (ULL-SSD, sync commit): %10.0f puts/s\n", block)
	fmt.Printf("  BA-WAL    (2B-SSD, BA commit):    %10.0f puts/s\n", ba)
	fmt.Printf("  speedup: %.2fx\n", ba/block)
}
