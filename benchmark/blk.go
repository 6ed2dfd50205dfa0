package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// blk-mixed: the raw block path of a 2B-SSD whose eight BA entries are
// pinned over a disjoint LBA range, so the LBA checker walks a full
// mapping table on every command. The drive has 16 blocks per die
// (256 MB raw) so that filling it to 90 % and overwriting it once — the
// way to steady-state GC — fits in a set-up that is timed three times.
const (
	blkBlocksPerDie        = 16
	blkClients             = 4
	blkReadShare           = 0.7
	blkFillShare           = 0.9
	blkOpsPerScale         = 1200000
	blkFillBurst           = 64 // pages per sequential-fill command
	blkDrainWorkers        = 1
	blkDrainWorkersProfile = 64 // the ULL-SSD profile's; limitGCRace
	blkPowerCycles         = 7
	blkCrashBurst          = 1024 // writes ahead of each power loss: one write buffer
)

type blkStack struct {
	sim  *Sim
	dev  *Blk
	span int // LBAs [0, span) carry block I/O
	pin0 int // first pinned LBA

	issued []uint32 // version handed to a write, per LBA
	acked  []uint32
}

func blkStamp(page []byte, lba int, ver uint32) {
	binary.LittleEndian.PutUint64(page[0:], uint64(lba))
	binary.LittleEndian.PutUint64(page[8:], uint64(ver))
}

func blkCheck(page []byte, lba int, lo, hi uint32) error {
	if l := binary.LittleEndian.Uint64(page[0:]); l != uint64(lba) {
		return fmt.Errorf("lba %d: holds lba %d's page", lba, l)
	}
	if v := binary.LittleEndian.Uint64(page[8:]); v < uint64(lo) || v > uint64(hi) {
		return fmt.Errorf("lba %d: version %d outside [%d,%d]", lba, v, lo, hi)
	}
	return nil
}

func baPattern(eid int) []byte {
	return []byte(fmt.Sprintf("entry-%d byte-path record, durable by BA_SYNC.......................", eid))[:64]
}

func (st *blkStack) runClients(r *RunResult, seed int64, phase, ops int, readShare float64, tr *Tracer, keep bool, atEnd func(p *Proc)) (*phase, error) {
	ph := newPhase(blkClients, ops, readShare, keep, st.sim.NowNs())
	active := blkClients
	per := ops / blkClients
	ps := st.dev.PageSize()
	for c := 0; c < blkClients; c++ {
		c := c
		rng := rand.New(rand.NewSource(clientSeed(seed, phase, c)))
		page := make([]byte, ps)
		st.sim.Go(fmt.Sprintf("client%d", c), func(p *Proc) {
			root := tr.Begin("client", int32(c), -1, st.sim.NowNs())
			for i := 0; i < per; i++ {
				lba := rng.Intn(st.span)
				read := rng.Float64() < readShare
				start := st.sim.NowNs()
				if read {
					ph.hashes[c].add('r', uint64(lba))
					sp := tr.Begin("read4k", int32(c), root, start)
					lo := st.acked[lba]
					data, err := st.dev.Read(p, lba, 1)
					if err != nil {
						r.fail(1, "read: %v", err)
					} else if cerr := blkCheck(data, lba, lo, st.issued[lba]); cerr != nil {
						r.fail(1, "read: %v", cerr)
					}
					tr.End(sp, st.sim.NowNs())
				} else {
					ph.hashes[c].add('w', uint64(lba))
					sp := tr.Begin("write4k", int32(c), root, start)
					st.issued[lba]++
					ver := st.issued[lba]
					blkStamp(page, lba, ver)
					if err := st.dev.Write(p, lba, page); err != nil {
						r.fail(1, "write: %v", err)
					} else if ver > st.acked[lba] {
						st.acked[lba] = ver
					}
					tr.End(sp, st.sim.NowNs())
				}
				ph.record(read, st.sim.NowNs()-start)
			}
			ph.clientDone(st.sim.NowNs())
			tr.End(root, st.sim.NowNs())
			if active--; active == 0 && atEnd != nil {
				atEnd(p)
			}
		})
	}
	err := st.sim.Run()
	return ph, err
}

func buildBlk(o RunOpts, r *RunResult) (*blkStack, error) {
	st := &blkStack{sim: NewSim()}
	workers := blkDrainWorkers
	if o.Limit == limitGCRace {
		workers = blkDrainWorkersProfile
	}
	st.dev = OpenBlk(st.sim, blkBlocksPerDie, workers)
	pinned := st.dev.Entries() * st.dev.EntryPages()
	st.pin0 = st.dev.Pages() - pinned
	st.span = int(float64(st.pin0) * blkFillShare)
	st.issued, st.acked = make([]uint32, st.span), make([]uint32, st.span)
	var ferr error
	st.sim.Go("fill", func(p *Proc) {
		for e := 0; e < st.dev.Entries(); e++ {
			if ferr = st.dev.Pin(p, e, st.pin0+e*st.dev.EntryPages()); ferr != nil {
				return
			}
			if ferr = st.dev.BAWrite(p, e, 0, baPattern(e)); ferr != nil {
				return
			}
		}
		ps := st.dev.PageSize()
		buf := make([]byte, blkFillBurst*ps)
		for lba := 0; lba < st.span; lba += blkFillBurst {
			n := blkFillBurst
			if lba+n > st.span {
				n = st.span - lba
			}
			for i := 0; i < n; i++ {
				st.issued[lba+i], st.acked[lba+i] = 1, 1
				blkStamp(buf[i*ps:], lba+i, 1)
			}
			if ferr = st.dev.Write(p, lba, buf[:n*ps]); ferr != nil {
				return
			}
		}
	})
	if err := st.sim.Run(); err != nil {
		return st, err
	}
	if ferr != nil {
		return st, fmt.Errorf("fill: %w", ferr)
	}
	// One random overwrite of the whole span brings GC to steady state.
	if _, err := st.runClients(r, o.Seed, 0, int(float64(st.span)*o.Setup), 0, nil, false, nil); err != nil {
		return st, err
	}
	return st, nil
}

func runBlk(o RunOpts) *RunResult {
	r := newResult("blk-mixed")
	r.ProbeAs = map[string]string{"device.write4k": "device.write4k_1w"}
	ops := int(float64(blkOpsPerScale)*o.Measured) / blkClients * blkClients
	if ops < blkClients {
		ops = blkClients
	}
	r.Attempted = int64(ops)
	var st *blkStack
	err := timedSetups(r, o, func() (err error) {
		st, err = buildBlk(o, r)
		return err
	}, func() {
		st.sim.Close()
		st = nil // or the old stack stays reachable while the next one is built
	})
	if err != nil {
		r.fail(int64(ops), "set-up: %v", err)
		return r
	}
	defer st.sim.Close()

	before, ev0 := st.sim.Counts(), st.sim.Events()
	var after Counts
	meter := startMeter()
	ph, runErr := st.runClients(r, o.Seed, 1, ops, blkReadShare, o.Tracer, true, func(p *Proc) {
		r.setHost(meter.stop())
		after, r.Events = st.sim.Counts(), st.sim.Events()-ev0
	})
	if runErr != nil || after.C == nil {
		r.setHost(meter.stop())
		r.fail(int64(ops)-ph.done, "measured phase: %v", runErr)
		after, r.Events = st.sim.Counts(), st.sim.Events()-ev0
	}
	r.Delta = after.Sub(before)
	r.setPhase(ph)
	if w := len(ph.writes); w > 0 {
		r.E2E["sim_nand_bytes_per_user_byte"] = float64(r.Delta.C["nand.bytes_written"]) / float64(w*st.dev.PageSize())
	}
	if runErr == nil {
		st.powerCycles(r, o.Seed, o.Limit)
	}
	return r
}

// powerCycles loses power blkPowerCycles times, each time right after a
// burst of writes that fills the write buffer, and after the last cycle
// reads back every page of the span and every BA entry.
//
// One cycle is (the metric is the mean over cycles): the drive drains its buffer, dumps the BA-buffer on its
// capacitors, comes back, serves a read of the last page written. The
// drain is first because a GC-bound drive cannot empty a full buffer on
// capacitor energy (README, "Known limits"); it counts into recovery.
func (st *blkStack) powerCycles(r *RunResult, seed int64, limit string) {
	var cycles []float64
	bad := 0
	rng := rand.New(rand.NewSource(clientSeed(seed, 2, 0)))
	st.sim.Go("powercycles", func(p *Proc) {
		ps := st.dev.PageSize()
		page := make([]byte, ps)
		for c := 0; c < blkPowerCycles; c++ {
			lba := 0
			for i := 0; i < blkCrashBurst; i++ {
				lba = rng.Intn(st.span)
				st.issued[lba]++
				blkStamp(page, lba, st.issued[lba])
				if err := st.dev.Write(p, lba, page); err != nil {
					r.fail(1, "burst write: %v", err)
					return
				}
				st.acked[lba] = st.issued[lba]
			}
			t0 := st.sim.NowNs()
			if limit != limitDirtyPowerCut {
				if err := st.dev.Drain(p); err != nil {
					r.fail(1, "drain: %v", err)
					return
				}
			}
			if _, err := st.dev.PowerLoss(p); err != nil {
				r.fail(1, "power loss: %v", err)
				return
			}
			if err := st.dev.PowerOn(p); err != nil {
				r.fail(1, "power on: %v", err)
				return
			}
			if data, err := st.dev.Read(p, lba, 1); err != nil {
				r.fail(1, "first read after recovery: %v", err)
			} else if cerr := blkCheck(data, lba, st.acked[lba], st.acked[lba]); cerr != nil {
				r.fail(1, "first read after recovery: %v", cerr)
			}
			cycles = append(cycles, float64(st.sim.NowNs()-t0))
		}
		for lba := 0; lba < st.span; lba += blkFillBurst {
			n := blkFillBurst
			if lba+n > st.span {
				n = st.span - lba
			}
			data, err := st.dev.Read(p, lba, n)
			if err != nil {
				r.fail(int64(n), "verify read: %v", err)
				continue
			}
			for i := 0; i < n; i++ {
				if cerr := blkCheck(data[i*ps:], lba+i, st.acked[lba+i], st.acked[lba+i]); cerr != nil {
					bad++
					r.fail(1, "after recovery: %v", cerr)
				}
			}
		}
		// The mapping table came back with the dump: entries hold their
		// bytes and their LBAs are gated again.
		got := make([]byte, 64)
		for e := 0; e < st.dev.Entries(); e++ {
			if err := st.dev.BARead(p, e, 0, got); err != nil || !bytes.Equal(got, baPattern(e)) {
				r.fail(1, "BA entry %d after recovery: err=%v", e, err)
			}
			if _, err := st.dev.Read(p, st.pin0+e*st.dev.EntryPages(), 1); !IsGated(err) {
				r.fail(1, "pinned LBA of entry %d not gated after recovery: %v", e, err)
			}
		}
	})
	if err := st.sim.Run(); err != nil {
		r.fail(1, "recovery: %v", err)
		return
	}
	if len(cycles) == 0 {
		return
	}
	r.E2E["sim_recovery_ms"] = mean(cycles) / 1e6
	r.Notes = append(r.Notes, fmt.Sprintf("recovery (drain, dump, power-on, first read), ms per cycle: %v; then %d pages and %d BA entries verified, %d bad",
		msList(cycles), st.span, st.dev.Entries(), bad))
}
