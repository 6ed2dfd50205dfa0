// Command walsim explores WAL commit modes interactively: it appends a
// stream of records under a chosen mode and log device and reports
// per-commit latency, throughput, flush counts and log-device WAF —
// the paper's Fig 5 commit modes made observable.
//
// Usage:
//
//	walsim [-mode sync|async|ba|pm] [-device dc|ull|2b]
//	       [-records n] [-size bytes] [-clients n]
//	       [-ring n] [-segbytes n] [-checkpoint-every n]
//
// -ring selects the log's geometry. The default, 1, is a single 64 MB
// log file, write-once. -ring n >= 2 (all modes too) runs the stream
// through a ring of n segment files of -segbytes each: the log
// rotates as files fill, and -checkpoint-every issues a checkpoint
// every n commits (0 = never) that truncates the segments it covers —
// the report then adds rotation/checkpoint/truncation/group-flush
// counts and latencies.
//
// In ba mode the log is placed on mapping-table entries 0 and 1 — two
// entries, so two double-buffered halves of the BA-buffer.
package main

import (
	"flag"
	"fmt"
	"os"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

func main() {
	mode := flag.String("mode", "ba", "commit mode: sync, async, ba, pm")
	dev := flag.String("device", "2b", "log device: dc, ull, 2b")
	records := flag.Int("records", 1000, "records to append+commit")
	size := flag.Int("size", 128, "record payload bytes")
	clients := flag.Int("clients", 4, "concurrent committers")
	ring := flag.Int("ring", 1, "segment files in the log's ring (1 = one 64 MB log file)")
	segbytes := flag.Int64("segbytes", 1<<20, "segment file bytes (with -ring >= 2)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint every n commits, truncating covered segments (0 = never; with -ring >= 2)")
	flag.Parse()

	var cm wal.CommitMode
	switch *mode {
	case "sync":
		cm = wal.Sync
	case "async":
		cm = wal.Async
	case "ba":
		cm = wal.BA
	case "pm":
		cm = wal.PM
	default:
		fmt.Fprintf(os.Stderr, "walsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	env := sim.NewEnv()
	var fs *vfs.FS
	var ssd *core.TwoBSSD
	switch *dev {
	case "dc":
		fs = vfs.New(device.New(env, device.DCSSD()))
	case "ull":
		fs = vfs.New(device.New(env, device.ULLSSD()))
	case "2b":
		ssd = core.New(env, core.DefaultConfig())
		fs = vfs.New(ssd.Device())
	default:
		fmt.Fprintf(os.Stderr, "walsim: unknown device %q\n", *dev)
		os.Exit(2)
	}

	var l *wal.Log
	h := &histo.H{}
	commits := 0
	env.Go("setup", func(p *sim.Proc) {
		cfg := wal.Config{Mode: cm}
		pin := int64(64 << 20)
		if *ring > 1 {
			cfg.FS, cfg.Name, cfg.Ring, cfg.SegmentFileBytes = fs, "walsim.seg", *ring, *segbytes
			pin = *segbytes
		} else {
			f, err := fs.Create("walsim.log", pin)
			if err != nil {
				panic(err)
			}
			cfg.File = f
		}
		if cm == wal.BA {
			if ssd == nil {
				fmt.Fprintln(os.Stderr, "walsim: BA mode requires -device 2b")
				os.Exit(2)
			}
			// Two entries: double-buffered halves of the BA buffer, each
			// clamped to the segment file (small -segbytes values pin
			// whole files).
			cfg.SSD, cfg.EIDs = ssd, []core.EID{0, 1}
			cfg.SegmentBytes = int(min(int64(ssd.Config().BABufferBytes/2), pin))
		}
		var err error
		if l, err = wal.Open(env, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "walsim: %v\n", err)
			os.Exit(2)
		}
		per := *records / *clients
		for c := 0; c < *clients; c++ {
			env.Go(fmt.Sprintf("client%d", c), func(w *sim.Proc) {
				payload := make([]byte, *size)
				for i := 0; i < per; i++ {
					start := env.Now()
					lsn, err := l.Append(w, payload)
					if err != nil {
						panic(err)
					}
					if err := l.Commit(w, lsn); err != nil {
						panic(err)
					}
					h.Observe(sim.Duration(env.Now() - start))
					commits++
					if *ring > 1 && *ckptEvery > 0 && commits%*ckptEvery == 0 {
						if err := l.Checkpoint(w, lsn); err != nil {
							panic(err)
						}
					}
				}
			})
		}
	})
	env.Run()

	// The log publishes its activity as the env's "wal.*" series (and a
	// ring its lifecycle as "wal.seg_*").
	reg := obs.Of(env).Registry()
	n := func(name string) uint64 { return reg.Counter("wal." + name).Value() }
	elapsed := sim.Duration(env.Now())
	fstats := fs.Device().FTL().Stats()
	fmt.Printf("mode=%s device=%s clients=%d records=%d size=%dB", cm, *dev, *clients, *records, *size)
	if *ring > 1 {
		fmt.Printf(" ring=%d segbytes=%d", *ring, *segbytes)
	}
	fmt.Println()
	fmt.Printf("  virtual elapsed:   %v\n", elapsed)
	fmt.Printf("  throughput:        %.0f commits/s\n", float64(n("commits"))/elapsed.Seconds())
	fmt.Printf("  avg commit:        %v\n", reg.Histo("wal.commit_ns").Mean())
	fmt.Printf("  flushes:           %d (%.2f commits/flush)\n", n("flushes"),
		float64(n("commits"))/float64(max(n("flushes"), 1)))
	fmt.Printf("  bytes appended:    %d (pad %d)\n", n("bytes_appended"), n("pad_bytes"))
	if *ring > 1 {
		first, cur := l.Segments()
		fmt.Printf("  group flushes:     %d (%.2f commits/flush)\n", n("seg_group_flushes"),
			float64(n("commits"))/float64(max(n("seg_group_flushes"), 1)))
		fmt.Printf("  rotations:         %d (avg %v)\n", n("seg_rotations"), reg.Histo("wal.seg_rotate_ns").Mean())
		fmt.Printf("  checkpoints:       %d (avg %v), truncated %d segments\n",
			n("seg_checkpoints"), reg.Histo("wal.seg_checkpoint_ns").Mean(), n("seg_truncations"))
		fmt.Printf("  segments live:     [%d, %d], retained floor LSN %d, checkpoint LSN %d\n",
			first, cur, l.RetainedLSN(), l.CheckpointLSN())
	}
	fmt.Printf("  durable offset:    %d of %d appended\n", l.DurableOff(), l.AppendOff())
	fmt.Printf("  log-device NAND:   %d page programs (WAF %.2f)\n",
		fstats.NandPagewrites, fstats.WAF())
	fmt.Printf("  persist latency:   %s\n", h)
	fmt.Print(h.Bars(40))
}
