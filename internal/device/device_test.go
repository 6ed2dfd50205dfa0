package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// counter reads a registry series by name and fails the test when no
// component registered it: Registry.Counter would create the name and
// read 0, so a misspelled name would pass an "== 0" check vacuously.
func counter(t testing.TB, e *sim.Env, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

// small returns a profile scaled down for fast tests.
func small(p Profile) Profile {
	p.Nand.Channels = 2
	p.Nand.DiesPerChannel = 2
	p.Nand.BlocksPerDie = 16
	p.Nand.PagesPerBlock = 16
	p.FTL.OverProvision = 0.25
	p.WriteBufferPages = 32
	p.DrainWorkers = 4
	return p
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Profile{DCSSD(), ULLSSD()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := ULLSSD()
	bad.FirmwareCores = 0
	if bad.Validate() == nil {
		t.Error("invalid profile accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	payload := bytes.Repeat([]byte{0x5A}, 3*ps)
	e.Go("t", func(p *sim.Proc) {
		if err := d.WritePages(p, 10, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := d.ReadPages(p, 10, 3)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("round trip mismatch")
		}
	})
	e.Run()
}

func TestReadServesBufferedCopy(t *testing.T) {
	// A read issued immediately after a write (before drain completes)
	// must see the new data.
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		d.WritePages(p, 0, bytes.Repeat([]byte{1}, ps))
		got, err := d.ReadPages(p, 0, 1)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if got[0] != 1 {
			t.Errorf("stale read: got %d", got[0])
		}
	})
	e.Run()
}

func TestUnalignedWriteRejected(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	e.Go("t", func(p *sim.Proc) {
		if err := d.WritePages(p, 0, make([]byte, 100)); !errors.Is(err, ErrUnaligned) {
			t.Errorf("err = %v", err)
		}
		if err := d.WritePages(p, 0, nil); !errors.Is(err, ErrUnaligned) {
			t.Errorf("empty write err = %v", err)
		}
	})
	e.Run()
}

func TestOutOfRangeWrite(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	e.Go("t", func(p *sim.Proc) {
		lba := ftl.LBA(d.Pages())
		if err := d.WritePages(p, lba, make([]byte, d.PageSize())); !errors.Is(err, ftl.ErrLBAOutOfRange) {
			t.Errorf("err = %v", err)
		}
	})
	e.Run()
}

func TestDrainEmptiesBuffer(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		d.WritePages(p, 0, bytes.Repeat([]byte{7}, 8*ps))
		if err := d.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if err := d.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
		}
		if d.BufferedPages() != 0 {
			t.Errorf("buffer not drained: %d pages", d.BufferedPages())
		}
		// After the drain the data must be on NAND via the FTL.
		if !d.FTL().Mapped(0) {
			t.Error("lba 0 not mapped after drain")
		}
	})
	e.Run()
}

func TestSameLBARewritesLastWriteWins(t *testing.T) {
	// Spaced-out rewrites of one LBA each reach NAND (this is exactly
	// the repeated-log-page WAF penalty the paper describes), and the
	// final read returns the last value.
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		for v := byte(1); v <= 5; v++ {
			d.WritePages(p, 3, bytes.Repeat([]byte{v}, ps))
		}
		// Mid-drain read must see the newest copy.
		got, _ := d.ReadPages(p, 3, 1)
		if got[0] != 5 {
			t.Errorf("mid-drain read got %d, want 5 (last write wins)", got[0])
		}
		d.Drain(p)
		got, _ = d.ReadPages(p, 3, 1)
		if got[0] != 5 {
			t.Errorf("post-drain read got %d, want 5", got[0])
		}
	})
	e.Run()
	if w := counter(t, e, "ftl.host_page_writes"); w != 5 {
		t.Errorf("FTL writes = %d, want 5 (each rewrite hits NAND)", w)
	}
}

func TestSameLBACoalescesWhenDrainIsSlow(t *testing.T) {
	// With a single slow drain worker, rewrites arriving while the
	// buffer is backed up coalesce into one NAND program.
	p := small(ULLSSD())
	p.DrainWorkers = 1
	p.Nand.ProgramLatency = 10 * sim.Millisecond
	e := sim.NewEnv()
	d := New(e, p)
	ps := d.PageSize()
	e.Go("t", func(pr *sim.Proc) {
		// First write occupies the drain worker (lba 9), then rewrites
		// of lba 3 pile up behind it and coalesce.
		d.WritePages(pr, 9, bytes.Repeat([]byte{1}, ps))
		for v := byte(1); v <= 5; v++ {
			d.WritePages(pr, 3, bytes.Repeat([]byte{v}, ps))
		}
		d.Drain(pr)
		got, _ := d.ReadPages(pr, 3, 1)
		if got[0] != 5 {
			t.Errorf("got %d, want 5", got[0])
		}
	})
	e.Run()
	// lba 9 (1 write) + lba 3 coalesced (far fewer than 5).
	if w := counter(t, e, "ftl.host_page_writes"); w > 3 {
		t.Errorf("FTL writes = %d, want <= 3 (coalesced)", w)
	}
}

type denyGate struct{ err error }

func (g denyGate) CheckRead(ftl.LBA, int) error  { return g.err }
func (g denyGate) CheckWrite(ftl.LBA, int) error { return g.err }

func TestGateBlocksIO(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	d.SetGate(denyGate{err: ErrGated})
	e.Go("t", func(p *sim.Proc) {
		if err := d.WritePages(p, 0, make([]byte, d.PageSize())); !errors.Is(err, ErrGated) {
			t.Errorf("write err = %v", err)
		}
		if _, err := d.ReadPages(p, 0, 1); !errors.Is(err, ErrGated) {
			t.Errorf("read err = %v", err)
		}
		if err := d.ReadPagesInto(p, 0, make([]byte, 2*d.PageSize())); !errors.Is(err, ErrGated) {
			t.Errorf("read into err = %v", err)
		}
	})
	e.Run()
	if rd, wr := counter(t, e, "ULL-SSD.gated_reads"), counter(t, e, "ULL-SSD.gated_writes"); rd != 2 || wr != 1 {
		t.Fatalf("%d gated reads, %d gated writes; want 2 and 1", rd, wr)
	}
	if n := counter(t, e, "ULL-SSD.read_cmds"); n != 0 {
		t.Fatalf("gated reads issued %d read commands, want 0", n)
	}
}

func TestReadIntoPartialPageRejected(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	e.Go("t", func(p *sim.Proc) {
		if err := d.ReadPagesInto(p, 0, make([]byte, d.PageSize()+1)); !errors.Is(err, ErrUnaligned) {
			t.Errorf("err = %v", err)
		}
		if err := d.ReadPagesInto(p, 0, nil); err == nil {
			t.Error("empty read accepted")
		}
	})
	e.Run()
}

func latencyOf(t *testing.T, p Profile, op func(pr *sim.Proc, d *Device)) sim.Duration {
	t.Helper()
	e := sim.NewEnv()
	d := New(e, p)
	var took sim.Duration
	e.Go("t", func(pr *sim.Proc) {
		// Precondition: write+drain one page so reads hit NAND.
		if err := d.WritePages(pr, 0, make([]byte, d.PageSize())); err != nil {
			t.Fatalf("precondition: %v", err)
		}
		d.Drain(pr)
		start := e.Now()
		op(pr, d)
		took = sim.Duration(e.Now() - start)
	})
	e.Run()
	return took
}

func within(t *testing.T, name string, got sim.Duration, want sim.Duration, tolFrac float64) {
	t.Helper()
	lo := sim.Duration(float64(want) * (1 - tolFrac))
	hi := sim.Duration(float64(want) * (1 + tolFrac))
	if got < lo || got > hi {
		t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tolFrac*100)
	}
}

// Calibration: the paper's Fig 7 block-I/O anchor points.
func TestCalibration4KBLatencies(t *testing.T) {
	read := func(pr *sim.Proc, d *Device) { d.ReadPages(pr, 0, 1) }
	write := func(pr *sim.Proc, d *Device) { d.WritePages(pr, 0, make([]byte, d.PageSize())) }

	within(t, "ULL 4KB read", latencyOf(t, ULLSSD(), read), 13200, 0.10)   // 13.2 µs
	within(t, "DC 4KB read", latencyOf(t, DCSSD(), read), 83000, 0.10)     // 83 µs
	within(t, "ULL 4KB write", latencyOf(t, ULLSSD(), write), 10000, 0.10) // 10 µs
	within(t, "DC 4KB write", latencyOf(t, DCSSD(), write), 17000, 0.10)   // 17 µs
}

// Calibration: Fig 8 large-request bandwidth ceilings (QD1).
func TestCalibrationBandwidth(t *testing.T) {
	bw := func(p Profile, write bool) float64 {
		e := sim.NewEnv()
		d := New(e, p)
		const pages = 2048 // 8 MB
		total := pages * d.PageSize()
		var took sim.Duration
		e.Go("t", func(pr *sim.Proc) {
			if !write {
				// Precondition NAND so reads are real.
				buf := make([]byte, total)
				d.WritePages(pr, 0, buf)
				d.Drain(pr)
			}
			start := e.Now()
			if write {
				d.WritePages(pr, 0, make([]byte, total))
				d.Drain(pr)
			} else {
				d.ReadPages(pr, 0, pages)
			}
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return float64(total) / took.Seconds() / 1e9 // GB/s
	}
	if got := bw(ULLSSD(), false); got < 2.6 || got > 3.3 {
		t.Errorf("ULL read bandwidth = %.2f GB/s, want ~3.2", got)
	}
	if got := bw(DCSSD(), false); got < 1.6 || got > 2.6 {
		t.Errorf("DC read bandwidth = %.2f GB/s, want ~2.0-2.3", got)
	}
	if got := bw(ULLSSD(), true); got < 2.4 || got > 3.3 {
		t.Errorf("ULL write bandwidth = %.2f GB/s, want ~3.2 (PCIe-capped)", got)
	}
	if got := bw(DCSSD(), true); got < 1.1 || got > 1.9 {
		t.Errorf("DC write bandwidth = %.2f GB/s, want ~1.5", got)
	}
}

func TestConcurrentWritersIntegrity(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	const writers = 8
	const perWriter = 16
	for w := 0; w < writers; w++ {
		w := w
		e.Go("writer", func(p *sim.Proc) {
			for i := 0; i < perWriter; i++ {
				lba := ftl.LBA(w*perWriter + i)
				if err := d.WritePages(p, lba, bytes.Repeat([]byte{byte(w + 1)}, ps)); err != nil {
					t.Errorf("w%d: %v", w, err)
					return
				}
			}
		})
	}
	e.Run()
	e.Go("verify", func(p *sim.Proc) {
		d.Drain(p)
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				got, err := d.ReadPages(p, ftl.LBA(w*perWriter+i), 1)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if got[0] != byte(w+1) {
					t.Errorf("lba %d: got %d want %d", w*perWriter+i, got[0], w+1)
				}
			}
		}
	})
	e.Run()
}

// The write buffer's LBA index keeps its place while the drain cursor
// wraps: with 1 500 slots and one slow drain worker the cursor passes
// slot 1 024 and then the end of the ring without the buffer ever
// emptying. In that state a rewrite of a still-queued LBA replaces its
// copy in its slot, reads return every LBA's newest copy, and
// BufferedPages matches a recount.
func TestBufferIndexKeepsItsPosition(t *testing.T) {
	prof := small(ULLSSD())
	prof.Nand.BlocksPerDie, prof.Nand.PagesPerBlock = 64, 32
	prof.WriteBufferPages = 1500
	prof.DrainWorkers = 1
	prof.Nand.ProgramLatency = sim.Millisecond
	e := sim.NewEnv()
	d := New(e, prof)
	ps := d.PageSize()
	const lbas = 2000 // more than the buffer holds: queued LBAs are distinct
	version := make([]uint32, lbas)
	page := func(lba int) []byte {
		pg := make([]byte, ps)
		binary.LittleEndian.PutUint32(pg, uint32(lba))
		binary.LittleEndian.PutUint32(pg[4:], version[lba])
		return pg
	}
	write := func(p *sim.Proc, lba int) {
		version[lba]++
		if err := d.WritePages(p, ftl.LBA(lba), page(lba)); err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
	}
	checkRead := func(p *sim.Proc, lba int) {
		got, err := d.ReadPages(p, ftl.LBA(lba), 1)
		if err != nil || !bytes.Equal(got, page(lba)) {
			t.Fatalf("lba %d reads version %d, %v; want %d", lba, binary.LittleEndian.Uint32(got[4:]), err, version[lba])
		}
	}
	// slotOf is the ring slot holding lba among the queued ones, -1 if
	// none does; it fails the test if two do.
	slotOf := func(lba ftl.LBA) int {
		at := -1
		for i := 0; i < d.queued; i++ {
			if s := (d.ringHead + i) % len(d.ring); d.ring[s] == lba {
				if at >= 0 {
					t.Fatalf("lba %d queued in slots %d and %d", lba, at, s)
				}
				at = s
			}
		}
		return at
	}
	recount := func() int {
		n := 0
		for lba, b := range d.byLBA {
			if b.queued {
				if slotOf(lba) < 0 {
					t.Fatalf("lba %d is marked queued but holds no ring slot", lba)
				}
				n++
			}
			n += len(b.inflight) - b.landed
		}
		return n
	}
	drained := obs.Of(e).Registry().Counter("ftl.host_page_writes")
	e.Go("t", func(p *sim.Proc) {
		next, emptied := 0, false
		for drained.Value() < uint64(prof.WriteBufferPages)+100 {
			write(p, next%lbas)
			if next++; next > 16 && d.queued == 0 {
				emptied = true
			}
		}
		if emptied || next <= prof.WriteBufferPages {
			t.Fatalf("%d writes, buffer emptied %v: the cursor never wrapped under load", next, emptied)
		}
		// The newest write is queued near the ring's tail: rewrite it.
		last := ftl.LBA((next - 1) % lbas)
		at := slotOf(last)
		if at < 0 {
			t.Fatal("the newest write is not queued")
		}
		queued := d.queued
		write(p, int(last))
		if s := slotOf(last); s != at {
			t.Fatalf("the rewrite moved lba %d from slot %d to %d", last, at, s)
		}
		if d.queued > queued {
			t.Fatalf("the rewrite took a slot: %d queued, was %d", d.queued, queued)
		}
		if got, want := d.BufferedPages(), recount(); got != want {
			t.Fatalf("BufferedPages %d, recount %d", got, want)
		}
		for lba := 0; lba < lbas; lba++ {
			checkRead(p, lba)
		}
		if got, want := d.BufferedPages(), recount(); got != want {
			t.Fatalf("after the reads: BufferedPages %d, recount %d", got, want)
		}
		d.Drain(p)
		if d.BufferedPages() != 0 || len(d.byLBA) != 0 {
			t.Fatalf("drained buffer holds %d pages, %d index records", d.BufferedPages(), len(d.byLBA))
		}
		for lba := 0; lba < lbas; lba++ {
			checkRead(p, lba)
		}
	})
	e.Run()
}

// TestSameLBAHerdResumesOnlyTheNextTicket rewrites one LBA back to back
// on a drive with 64 drain workers: the copies queue for NAND behind
// per-LBA tickets on one signal, and every landing fires it. Only the
// worker holding the next ticket may be resumed; the kernel re-checks
// the others' turns in place. The pinned event count moves if any
// worker is resumed only to park again, and the last write must win.
func TestSameLBAHerdResumesOnlyTheNextTicket(t *testing.T) {
	prof := small(ULLSSD())
	prof.DrainWorkers = 64
	e := sim.NewEnv()
	d := New(e, prof)
	ps := d.PageSize()
	const rewrites = 48
	deepest := 0
	e.Go("t", func(p *sim.Proc) {
		for v := 1; v <= rewrites; v++ {
			if err := d.WritePages(p, 3, bytes.Repeat([]byte{byte(v)}, ps)); err != nil {
				t.Fatalf("write %d: %v", v, err)
			}
			deepest = max(deepest, d.inflightDone.Waiters())
		}
		if err := d.Drain(p); err != nil {
			t.Fatal(err)
		}
		if got, _ := d.ReadPages(p, 3, 1); got[0] != rewrites {
			t.Errorf("read version %d, want %d (last write wins)", got[0], rewrites)
		}
	})
	e.Run()
	if w := counter(t, e, "ftl.host_page_writes"); w != rewrites {
		t.Errorf("FTL writes = %d, want %d", w, rewrites)
	}
	if deepest < 4 {
		t.Fatalf("at most %d copies waited for their turn: no herd to thin", deepest)
	}
	// 1398 when every landing resumed every queued worker.
	if got := e.Events(); got != 504 {
		t.Errorf("dispatched %d events, want 504", got)
	}
}
