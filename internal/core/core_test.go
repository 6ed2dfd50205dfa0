package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/device"
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

// testConfig returns a scaled-down 2B-SSD for fast tests: a small base
// device and a 256 KB BA-buffer (64 pages), 8 entries.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 64 * 4096
	return cfg
}

func newSSD(e *sim.Env) *TwoBSSD { return New(e, testConfig()) }

// Table I renders DefaultConfig: its eight rows, with the capacitors,
// the BA-buffer and the mapping entries the configuration holds.
func TestTable1RendersDefaultConfig(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("Table I has %d rows, want 8", len(rows))
	}
	for i, want := range map[int]string{2: "800 GB", 5: "270 uF x 3", 6: "8 MB", 7: "8"} {
		if rows[i][1] != want {
			t.Errorf("row %q = %q, want %q", rows[i][0], rows[i][1], want)
		}
	}
}

func TestCapacitorEnergyBudget(t *testing.T) {
	cfg := DefaultConfig()
	// 3 x 270 µF at 12 V = 3 x 19.44 mJ = 58.3 mJ.
	got := cfg.CapacitorEnergyJ()
	if got < 0.055 || got > 0.062 {
		t.Fatalf("energy = %.4f J, want ~0.0583", got)
	}
}

func TestPinLoadsNandIntoBuffer(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		// Write a recognizable page via block I/O, flush to NAND.
		want := bytes.Repeat([]byte{0x42}, ps)
		if err := s.Device().WritePages(p, 10, want); err != nil {
			t.Fatalf("block write: %v", err)
		}
		if err := s.BAPin(p, 0, 0, 10, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		got := make([]byte, ps)
		if err := s.Mmio().Read(p, 0, got); err != nil {
			t.Fatalf("mmio read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("pin did not load NAND data into BA-buffer")
		}
	})
	e.Run()
}

func TestFlushStoresBufferToNand(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 2, 2*ps, 20, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		payload := []byte("log record via MMIO")
		if err := s.Mmio().Write(p, 2*ps, payload); err != nil {
			t.Fatalf("mmio write: %v", err)
		}
		if err := s.BASync(p, 2); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := s.BAFlush(p, 2); err != nil {
			t.Fatalf("flush: %v", err)
		}
		// Entry gone, range unpinned: block read must return the data.
		got := make([]byte, s.PageSize())
		if err := s.Device().ReadPagesInto(p, 20, got); err != nil {
			t.Fatalf("block read: %v", err)
		}
		if !bytes.HasPrefix(got, payload) {
			t.Errorf("NAND content = %q", got[:32])
		}
	})
	e.Run()
	if len(s.Entries()) != 0 {
		t.Fatal("entry not removed after flush")
	}
}

func TestPinValidation(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		cases := []struct {
			name string
			err  error
			call func() error
		}{
			{"bad eid", ErrBadEID, func() error { return s.BAPin(p, 99, 0, 0, 1) }},
			{"negative eid", ErrBadEID, func() error { return s.BAPin(p, -1, 0, 0, 1) }},
			{"unaligned offset", ErrUnaligned, func() error { return s.BAPin(p, 0, 7, 0, 1) }},
			{"zero pages", ErrUnaligned, func() error { return s.BAPin(p, 0, 0, 0, 0) }},
			{"buffer overflow", ErrOutOfBuffer, func() error { return s.BAPin(p, 0, 0, 0, 1000) }},
			{"lba overflow", ErrOutOfLBA, func() error {
				return s.BAPin(p, 0, 0, ftl.LBA(s.Device().Pages()), 1)
			}},
		}
		for _, c := range cases {
			if err := c.call(); !errors.Is(err, c.err) {
				t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
			}
		}
		// In-use EID.
		if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		if err := s.BAPin(p, 0, ps, 50, 1); !errors.Is(err, ErrEntryInUse) {
			t.Errorf("in-use eid: err = %v", err)
		}
		// Overlapping buffer range.
		if err := s.BAPin(p, 1, 0, 50, 1); !errors.Is(err, ErrOverlap) {
			t.Errorf("buffer overlap: err = %v", err)
		}
		// Overlapping LBA range.
		if err := s.BAPin(p, 1, ps, 0, 1); !errors.Is(err, ErrOverlap) {
			t.Errorf("lba overlap: err = %v", err)
		}
	})
	e.Run()
}

func TestLBACheckerGatesBlockIO(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 4); err != nil {
			t.Fatalf("pin: %v", err)
		}
		// Block write into the pinned range must be gated.
		if err := s.Device().WritePages(p, 12, make([]byte, ps)); !errors.Is(err, ErrPinnedRange) {
			t.Errorf("gated write err = %v", err)
		}
		// Block read overlapping the range is gated too.
		if err := s.Device().ReadPagesInto(p, 9, make([]byte, 2*ps)); !errors.Is(err, ErrPinnedRange) {
			t.Errorf("gated read err = %v", err)
		}
		// Outside the range: fine.
		if err := s.Device().WritePages(p, 20, make([]byte, ps)); err != nil {
			t.Errorf("ungated write err = %v", err)
		}
		// After flush the gate lifts.
		if err := s.BAFlush(p, 0); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := s.Device().WritePages(p, 12, make([]byte, ps)); err != nil {
			t.Errorf("post-flush write err = %v", err)
		}
	})
	e.Run()
	if counter(t, e, s.Device().Profile().Name+".gated_writes") == 0 {
		t.Fatal("no gated writes counted")
	}
}

func TestGetEntryInfo(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if _, err := s.BAGetEntryInfo(p, 3); !errors.Is(err, ErrNoEntry) {
			t.Errorf("empty entry err = %v", err)
		}
		if err := s.BAPin(p, 3, 4*ps, 30, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		ent, err := s.BAGetEntryInfo(p, 3)
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		if ent.ID != 3 || ent.Offset != 4*ps || ent.LBA != 30 || ent.Pages != 2 {
			t.Errorf("entry = %+v", ent)
		}
		if ent.Bytes(ps) != 2*ps {
			t.Errorf("Bytes = %d", ent.Bytes(ps))
		}
	})
	e.Run()
}

func TestReadDMACopiesCommittedData(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		payload := bytes.Repeat([]byte{0x77}, ps)
		s.Mmio().Write(p, 0, payload)
		s.BASync(p, 0)
		dst := make([]byte, ps)
		n, err := s.BAReadDMA(p, 0, dst)
		if err != nil {
			t.Fatalf("dma: %v", err)
		}
		if n != ps || !bytes.Equal(dst, payload) {
			t.Error("dma data mismatch")
		}
	})
	e.Run()
}

func TestReadDMADoesNotSeeUnsyncedStores(t *testing.T) {
	// The DMA engine reads device memory; posted-but-unsynced MMIO
	// stores are invisible to it — the documented hazard.
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		s.Mmio().Write(p, 0, []byte{0xFF, 0xFF})
		dst := make([]byte, 2)
		s.BAReadDMA(p, 0, dst)
		if dst[0] == 0xFF {
			t.Error("DMA observed unsynced WC data")
		}
	})
	e.Run()
}

func TestReadDMATruncatesToEntry(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		dst := make([]byte, 3*ps)
		n, err := s.BAReadDMA(p, 0, dst)
		if err != nil {
			t.Fatalf("dma: %v", err)
		}
		if n != ps {
			t.Errorf("n = %d, want %d (entry length)", n, ps)
		}
	})
	e.Run()
}

func TestDMALatencyCalibration(t *testing.T) {
	// Paper: 4 KB read via DMA ≈ 58 µs; pays off versus plain MMIO
	// from ~2 KB upward but not below.
	cfg := testConfig()
	measure := func(n int, dma bool) sim.Duration {
		e := sim.NewEnv()
		s := New(e, cfg)
		var took sim.Duration
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
				t.Fatalf("pin: %v", err)
			}
			start := e.Now()
			if dma {
				s.BAReadDMA(p, 0, make([]byte, n))
			} else {
				s.Mmio().Read(p, 0, make([]byte, n))
			}
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return took
	}
	d4k := measure(4096, true)
	if d4k < 55*sim.Microsecond || d4k > 65*sim.Microsecond {
		t.Errorf("4KB DMA read = %v, want ~58-60us", d4k)
	}
	if m := measure(4096, false); float64(m)/float64(d4k) < 2.0 {
		t.Errorf("DMA speedup at 4KB = %.2fx, want >= 2 (paper: 2.6x)", float64(m)/float64(d4k))
	}
	if measure(2048, true) >= measure(2048, false) {
		t.Error("DMA should win at 2KB")
	}
	if measure(512, true) <= measure(512, false) {
		t.Error("plain MMIO should win at 512B")
	}
}

func TestFlushOfUnknownEntry(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAFlush(p, 1); !errors.Is(err, ErrNoEntry) {
			t.Errorf("err = %v", err)
		}
		if err := s.BAFlush(p, 100); !errors.Is(err, ErrBadEID) {
			t.Errorf("err = %v", err)
		}
	})
	e.Run()
}

func TestPinSeesLatestBlockWrite(t *testing.T) {
	// A pin issued right after an acknowledged block write must load
	// the new data (pin drains the device write buffer first).
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		s.Device().WritePages(p, 5, bytes.Repeat([]byte{0x11}, ps))
		s.Device().WritePages(p, 5, bytes.Repeat([]byte{0x22}, ps))
		if err := s.BAPin(p, 0, 0, 5, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		got := make([]byte, 1)
		s.Mmio().Read(p, 0, got)
		if got[0] != 0x22 {
			t.Errorf("pin loaded stale data: %x", got[0])
		}
	})
	e.Run()
}

func TestStatsCounters(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		s.BAPin(p, 0, 0, 0, 2)
		s.BASync(p, 0)
		s.BAReadDMA(p, 0, make([]byte, 16))
		s.BAFlush(p, 0)
	})
	e.Run()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"2bssd.pins", 1}, {"2bssd.flushes", 1}, {"2bssd.syncs", 1}, {"2bssd.dma_reads", 1},
		{"2bssd.pages_pinned", 2}, {"2bssd.pages_flushed", 2}, {"2bssd.dma_bytes", 16},
	} {
		if got := counter(t, e, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMaxEntriesAllUsable(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < testConfig().MaxEntries; i++ {
			if err := s.BAPin(p, EID(i), i*ps, ftl.LBA(i*10), 1); err != nil {
				t.Fatalf("pin %d: %v", i, err)
			}
		}
		if got := len(s.Entries()); got != testConfig().MaxEntries {
			t.Errorf("entries = %d", got)
		}
	})
	e.Run()
}

func TestBlockIOUnaffectedByMemoryInterface(t *testing.T) {
	// Discussion section: block I/O shows no performance degradation
	// when the memory interface is enabled. Measure an ungated block
	// write latency with and without a live pin on a disjoint range.
	lat := func(withPin bool) sim.Duration {
		e := sim.NewEnv()
		s := newSSD(e)
		var took sim.Duration
		e.Go("t", func(p *sim.Proc) {
			if withPin {
				if err := s.BAPin(p, 0, 0, 40, 4); err != nil {
					t.Fatalf("pin: %v", err)
				}
			}
			start := e.Now()
			s.Device().WritePages(p, 0, make([]byte, s.PageSize()))
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return took
	}
	if a, b := lat(false), lat(true); a != b {
		t.Fatalf("block write latency changed with memory interface: %v vs %v", a, b)
	}
}

func TestULLBlockLatencyIdenticalOn2BSSD(t *testing.T) {
	// The 2B-SSD piggybacks on the ULL-SSD: block latencies identical.
	e := sim.NewEnv()
	s := New(e, DefaultConfig())
	e2 := sim.NewEnv()
	ull := device.New(e2, device.ULLSSD())
	var l2b, lull sim.Duration
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		s.Device().WritePages(p, 0, make([]byte, s.PageSize()))
		l2b = sim.Duration(e.Now() - start)
	})
	e.Run()
	e2.Go("t", func(p *sim.Proc) {
		start := e2.Now()
		ull.WritePages(p, 0, make([]byte, ull.PageSize()))
		lull = sim.Duration(e2.Now() - start)
	})
	e2.Run()
	if l2b != lull {
		t.Fatalf("2B block write %v != ULL %v", l2b, lull)
	}
}

func TestConcurrentPinnersDistinctEntries(t *testing.T) {
	// Several processes pin, write, sync and flush disjoint entries
	// concurrently; every byte must land on the right NAND pages.
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	const workers = 4
	for w := 0; w < workers; w++ {
		w := w
		e.Go("worker", func(p *sim.Proc) {
			eid := EID(w)
			off := w * 2 * ps
			lba := ftl.LBA(w * 10)
			if err := s.BAPin(p, eid, off, lba, 2); err != nil {
				t.Errorf("w%d pin: %v", w, err)
				return
			}
			payload := bytes.Repeat([]byte{byte(w + 1)}, ps)
			if err := s.Mmio().Write(p, off, payload); err != nil {
				t.Errorf("w%d write: %v", w, err)
				return
			}
			if err := s.BASync(p, eid); err != nil {
				t.Errorf("w%d sync: %v", w, err)
				return
			}
			if err := s.BAFlush(p, eid); err != nil {
				t.Errorf("w%d flush: %v", w, err)
			}
		})
	}
	e.Run()
	e.Go("verify", func(p *sim.Proc) {
		got := make([]byte, s.PageSize())
		for w := 0; w < workers; w++ {
			if err := s.Device().ReadPagesInto(p, ftl.LBA(w*10), got); err != nil {
				t.Errorf("verify read w%d: %v", w, err)
				return
			}
			if got[0] != byte(w+1) {
				t.Errorf("w%d: NAND got %d", w, got[0])
			}
		}
	})
	e.Run()
}

func TestEntryReuseCycles(t *testing.T) {
	// Pin/flush the same EID many times against different ranges; the
	// table must stay consistent and data must never bleed.
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		for cycle := 0; cycle < 12; cycle++ {
			lba := ftl.LBA(cycle * 3)
			if err := s.BAPin(p, 0, 0, lba, 1); err != nil {
				t.Fatalf("cycle %d pin: %v", cycle, err)
			}
			if err := s.Mmio().Write(p, 0, []byte{byte(cycle + 1)}); err != nil {
				t.Fatalf("cycle %d write: %v", cycle, err)
			}
			if err := s.BASync(p, 0); err != nil {
				t.Fatalf("cycle %d sync: %v", cycle, err)
			}
			if err := s.BAFlush(p, 0); err != nil {
				t.Fatalf("cycle %d flush: %v", cycle, err)
			}
		}
		got := make([]byte, s.PageSize())
		for cycle := 0; cycle < 12; cycle++ {
			if err := s.Device().ReadPagesInto(p, ftl.LBA(cycle*3), got); err != nil {
				t.Fatalf("verify %d: %v", cycle, err)
			}
			if got[0] != byte(cycle+1) {
				t.Fatalf("cycle %d: got %d", cycle, got[0])
			}
		}
		_ = ps
	})
	e.Run()
}

func TestPinUnmappedRangeReadsZeros(t *testing.T) {
	// Pinning never-written LBAs loads zeros (the FTL answers unmapped
	// reads from the map) — the fresh-log-segment case.
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 50, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		buf := make([]byte, 64)
		s.Mmio().Read(p, 0, buf)
		for _, b := range buf {
			if b != 0 {
				t.Fatal("unmapped pin loaded non-zero data")
			}
		}
	})
	e.Run()
}

// Property: MMIO write+sync+flush of random bytes to a random entry is
// always readable back via block I/O, byte for byte.
func TestPropertyDualPathRoundTrip(t *testing.T) {
	cfg := testConfig()
	prop := func(data []byte, lbaSeed uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		e := sim.NewEnv()
		s := New(e, cfg)
		lba := ftl.LBA(lbaSeed % 40)
		ok := true
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, 0, lba, 1); err != nil {
				ok = false
				return
			}
			if err := s.Mmio().Write(p, 0, data); err != nil {
				ok = false
				return
			}
			if err := s.BASync(p, 0); err != nil {
				ok = false
				return
			}
			if err := s.BAFlush(p, 0); err != nil {
				ok = false
				return
			}
			got := make([]byte, s.PageSize())
			if err := s.Device().ReadPagesInto(p, lba, got); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got[:len(data)], data)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Bytes returns the pinned length in bytes.
func (e Entry) Bytes(pageSize int) int { return e.Pages * pageSize }
