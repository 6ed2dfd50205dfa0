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
// -records, -clients, -size and -ring must be at least 1 and
// -checkpoint-every at least 0; the records are split as evenly as the
// clients allow, so exactly -records commits run.
//
// In ba mode the log is placed on mapping-table entries 0 and 1 — two
// entries, so two double-buffered halves of the BA-buffer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 2 on a usage error or a log
// configuration wal.Open refuses, 1 when the run itself fails.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("walsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	mode := fl.String("mode", "ba", "commit mode: sync, async, ba, pm")
	dev := fl.String("device", "2b", "log device: dc, ull, 2b")
	records := fl.Int("records", 1000, "records to append+commit")
	size := fl.Int("size", 128, "record payload bytes")
	clients := fl.Int("clients", 4, "concurrent committers")
	ring := fl.Int("ring", 1, "segment files in the log's ring (1 = one 64 MB log file)")
	segbytes := fl.Int64("segbytes", 1<<20, "segment file bytes (with -ring >= 2)")
	ckptEvery := fl.Int("checkpoint-every", 0, "checkpoint every n commits, truncating covered segments (0 = never; with -ring >= 2)")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "walsim: "+format+"\n", a...)
		fl.Usage()
		return 2
	}
	if fl.NArg() > 0 {
		return usage("unexpected argument %q", fl.Arg(0))
	}
	for _, c := range []struct {
		name   string
		v, min int
	}{{"records", *records, 1}, {"clients", *clients, 1}, {"size", *size, 1}, {"ring", *ring, 1}, {"checkpoint-every", *ckptEvery, 0}} {
		if c.v < c.min {
			return usage("-%s %d: want at least %d", c.name, c.v, c.min)
		}
	}

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
		return usage("unknown mode %q", *mode)
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
		return usage("unknown device %q", *dev)
	}
	if cm == wal.BA && ssd == nil {
		return usage("BA mode requires -device 2b")
	}

	var l *wal.Log
	h := &histo.H{}
	commits := 0
	// openErr is a configuration wal.Open refuses; runErr the first
	// failure of the run, after which every client stops.
	var openErr, runErr error
	env.Go("setup", func(p *sim.Proc) {
		cfg := wal.Config{Mode: cm}
		pin := int64(64 << 20)
		if *ring > 1 {
			cfg.FS, cfg.Name, cfg.Ring, cfg.SegmentFileBytes = fs, "walsim.seg", *ring, *segbytes
			pin = *segbytes
		} else {
			f, err := fs.Create("walsim.log", pin)
			if err != nil {
				runErr = err
				return
			}
			cfg.File = f
		}
		if cm == wal.BA {
			// Two entries: double-buffered halves of the BA buffer, each
			// clamped to the segment file (small -segbytes values pin
			// whole files).
			cfg.SSD, cfg.EIDs = ssd, []core.EID{0, 1}
			cfg.SegmentBytes = int(min(int64(ssd.Config().BABufferBytes/2), pin))
		}
		if l, openErr = wal.Open(env, cfg); openErr != nil {
			return
		}
		per, extra := *records / *clients, *records%*clients
		for c := 0; c < *clients; c++ {
			n := per
			if c < extra {
				n++
			}
			env.Go(fmt.Sprintf("client%d", c), func(w *sim.Proc) {
				payload := make([]byte, *size)
				for i := 0; i < n && runErr == nil; i++ {
					start := env.Now()
					lsn, err := l.Append(w, payload)
					if err == nil {
						err = l.Commit(w, lsn)
					}
					if err != nil {
						runErr = err
						return
					}
					h.Observe(sim.Duration(env.Now() - start))
					commits++
					if *ring > 1 && *ckptEvery > 0 && commits%*ckptEvery == 0 {
						if err := l.Checkpoint(w, lsn); err != nil {
							runErr = err
							return
						}
					}
				}
			})
		}
	})
	env.Run()
	if openErr != nil {
		fmt.Fprintf(stderr, "walsim: %v\n", openErr)
		return 2
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "walsim: %v\n", runErr)
		return 1
	}

	// The log publishes its activity as the env's "wal.*" series (and a
	// ring its lifecycle as "wal.seg_*").
	reg := obs.Of(env).Registry()
	n := func(name string) uint64 { return reg.Counter("wal." + name).Value() }
	elapsed := sim.Duration(env.Now())
	// The env holds the log device alone, so the ftl.* series are its.
	hostPages, nandPages := reg.Counter("ftl.host_page_writes").Value(), reg.Counter("ftl.nand_page_writes").Value()
	waf := 1.0
	if hostPages > 0 {
		waf = float64(nandPages) / float64(hostPages)
	}
	fmt.Fprintf(stdout, "mode=%s device=%s clients=%d records=%d size=%dB", cm, *dev, *clients, *records, *size)
	if *ring > 1 {
		fmt.Fprintf(stdout, " ring=%d segbytes=%d", *ring, *segbytes)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  virtual elapsed:   %v\n", elapsed)
	fmt.Fprintf(stdout, "  throughput:        %.0f commits/s\n", float64(n("commits"))/elapsed.Seconds())
	fmt.Fprintf(stdout, "  avg commit:        %v\n", reg.Histo("wal.commit_ns").Mean())
	fmt.Fprintf(stdout, "  flushes:           %d (%.2f commits/flush)\n", n("flushes"),
		float64(n("commits"))/float64(max(n("flushes"), 1)))
	fmt.Fprintf(stdout, "  bytes appended:    %d (pad %d)\n", n("bytes_appended"), n("pad_bytes"))
	if *ring > 1 {
		first, cur := l.Segments()
		fmt.Fprintf(stdout, "  group flushes:     %d (%.2f commits/flush)\n", n("seg_group_flushes"),
			float64(n("commits"))/float64(max(n("seg_group_flushes"), 1)))
		fmt.Fprintf(stdout, "  rotations:         %d (avg %v)\n", n("seg_rotations"), reg.Histo("wal.seg_rotate_ns").Mean())
		fmt.Fprintf(stdout, "  checkpoints:       %d (avg %v), truncated %d segments\n",
			n("seg_checkpoints"), reg.Histo("wal.seg_checkpoint_ns").Mean(), n("seg_truncations"))
		fmt.Fprintf(stdout, "  segments live:     [%d, %d], retained floor LSN %d, checkpoint LSN %d\n",
			first, cur, l.RetainedLSN(), l.CheckpointLSN())
	}
	fmt.Fprintf(stdout, "  durable offset:    %d of %d appended\n", l.DurableOff(), l.AppendOff())
	fmt.Fprintf(stdout, "  log-device NAND:   %d page programs (WAF %.2f)\n",
		nandPages, waf)
	fmt.Fprintf(stdout, "  persist latency:   %s\n", h)
	fmt.Fprint(stdout, h.Bars(40))
	return 0
}
