package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// carved lists the BA-buffer pages that have a frame.
func carved(s *TwoBSSD) []int {
	var pages []int
	for i, fr := range s.frames.pages {
		if fr != nil {
			pages = append(pages, i)
		}
	}
	return pages
}

// A page-aligned negative offset passes the alignment check; it must be
// refused before an entry is installed, not fault the move that follows.
func TestPinNegativeOffsetIsOutOfBuffer(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	var err error
	e.Go("pin", func(p *sim.Proc) { err = s.BAPin(p, 0, -s.PageSize(), 0, 1) })
	e.Run()
	if !errors.Is(err, ErrOutOfBuffer) {
		t.Fatalf("BAPin at offset %d: err = %v, want ErrOutOfBuffer", -s.PageSize(), err)
	}
	if ents := s.Entries(); len(ents) != 0 {
		t.Fatalf("a refused pin left entries %v", ents)
	}
}

// A drive allocates no BA-buffer until a page is written: building the
// 8 MB default drive allocates well under 1 MB.
func TestNewAllocatesNoBuffer(t *testing.T) {
	e := sim.NewEnv()
	defer e.Shutdown()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := New(e, DefaultConfig())
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("core.New allocated %d bytes, want < 1 MB", got)
	}
	if pages := carved(s); len(pages) != 0 {
		t.Fatalf("a new drive has frames for pages %v", pages)
	}
}

// An MMIO write that spans two BA-buffer pages lands in both frames,
// and the read DMA engine reads it back across the boundary.
func TestMMIOWriteAcrossPagesReadsBackByDMA(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	want := make([]byte, 2*ps)
	for i := ps - 100; i < ps+60; i++ {
		want[i] = byte(i)
	}
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 4*ps, 10, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		if err := s.Mmio().Write(p, 5*ps-100, want[ps-100:ps+60]); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.BASync(p, 0); err != nil {
			t.Fatalf("sync: %v", err)
		}
		got := make([]byte, 2*ps)
		if n, err := s.BAReadDMA(p, 0, got); err != nil || n != 2*ps {
			t.Fatalf("dma read: %d bytes, %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("dma read of a write across the page boundary differs")
		}
	})
	e.Run()
	if got := carved(s); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("carved pages %v, want [4 5]", got)
	}
}

// After a power loss the whole buffer — mapped, written-but-unmapped
// and untouched pages alike — reads 0xDE, and no frame stays carved.
func TestPowerLossReadsDEEverywhere(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 2*ps, 10, 3); err != nil {
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		if err := s.Mmio().Write(p, 9*ps+7, []byte{0x55}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.Mmio().Sync(p, 9*ps+7, 1); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if _, err := s.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
	})
	e.Run()
	got := make([]byte, s.frames.Len())
	s.frames.ReadAt(got, 0)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xDE}, len(got))) {
		t.Fatal("a BA-buffer byte survived the power loss")
	}
	if pages := carved(s); len(pages) != 0 {
		t.Fatalf("frames stay carved after the power loss: %v", pages)
	}
}

// PowerOn restores exactly the pages the dumped table maps: they are
// the only frames carved, and every other page reads zero — the
// written-but-unmapped one too.
func TestPowerOnCarvesOnlyMappedPages(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 2*ps, 10, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		if err := s.BAPin(p, 1, 5*ps, 20, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		fill(t, p, s, 1, 0xBB)
		if err := s.Mmio().Write(p, 9*ps, []byte{0x55}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.Mmio().Sync(p, 9*ps, 1); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut: %v", err)
		}
	})
	e.Run()
	if got := carved(s); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("carved pages after power-on %v, want [2 5 6]", got)
	}
	got := make([]byte, s.frames.Len())
	s.frames.ReadAt(got, 0)
	want := make([]byte, len(got))
	copy(want[2*ps:3*ps], bytes.Repeat([]byte{0xAA}, ps))
	copy(want[5*ps:7*ps], bytes.Repeat([]byte{0xBB}, 2*ps))
	if !bytes.Equal(got, want) {
		t.Fatal("the restored buffer is not the mapped pages over zeroes")
	}
}

// A BA_FLUSH still programming when the power-loss reset runs hands the
// flash a frame the flash reads at the program's end. DRAM lost its
// contents under it: such a page lands as 0xDE under the CRC of the
// bytes the flush saw, and the FTL's check refuses it — the torn page
// the crash harness excuses. A frame the reset took off its page would
// still hold the old bytes and land intact.
func TestFlushInFlightAtTheCutLandsTorn(t *testing.T) {
	const pages = 32
	// cut pins and fills one entry, starts its BA_FLUSH flushAt after
	// the cut begins (never, when negative), and cuts the power.
	cut := func(flushAt sim.Duration, after func(p *sim.Proc, s *TwoBSSD, done *bool)) sim.Duration {
		e := sim.NewEnv()
		s := newSSD(e)
		var dump sim.Duration
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, 0, 100, pages); err != nil {
				t.Fatalf("pin: %v", err)
			}
			fill(t, p, s, 0, 0xBB)
			done := false
			if flushAt >= 0 {
				e.Go("flusher", func(w *sim.Proc) {
					w.Sleep(flushAt)
					if err := s.BAFlush(w, 0); err != nil {
						t.Errorf("flush: %v", err)
					}
					done = true
				})
			}
			rep, err := s.PowerLoss(p)
			if err != nil {
				t.Fatalf("power loss: %v", err)
			}
			dump = rep.DumpDuration
			if after != nil {
				after(p, s, &done)
			}
		})
		e.Run()
		return dump
	}
	// The flush starts just before a cut without it would end, so the
	// cut's reset runs while its programs wait for the dies.
	dump := cut(-1, nil)
	cut(dump-20*sim.Microsecond, func(p *sim.Proc, s *TwoBSSD, done *bool) {
		if *done {
			t.Fatal("the flush finished inside the dump; it must be in flight at the reset")
		}
		for !*done {
			p.Sleep(10 * sim.Microsecond)
		}
		// A page read whole before the cut lands intact, one read whole
		// after it lands 0xDE under its own CRC, and one whose CRC was
		// taken before the cut and whose bytes were read after is torn.
		torn := 0
		buf := make([]byte, s.PageSize())
		for i := 0; i < pages; i++ {
			err := s.Device().FTL().ReadPageInto(p, ftl.LBA(100+i), buf)
			switch {
			case errors.Is(err, integrity.ErrPageCorrupt):
				torn++
			case err != nil:
				t.Fatalf("lba %d: %v", 100+i, err)
			case !bytes.Equal(buf, bytes.Repeat(buf[:1], len(buf))) || (buf[0] != 0xBB && buf[0] != 0xDE):
				t.Fatalf("lba %d reads neither a flushed page nor a torn one: % x", 100+i, buf[:8])
			}
		}
		if torn == 0 {
			t.Fatalf("none of %d pages flushed across the cut is torn", pages)
		}
		t.Logf("%d of %d torn", torn, pages)
	})
}

// A cut in the middle of a BA_PIN: a dump program takes a page's CRC,
// then reads its bytes at the program's end, and a pin read can land in
// the page in between — the image is torn and PowerOn refuses it, as it
// did with one flat buffer. A dump that read a page the pin had not
// carved yet as the shared fill page would program a consistent zero
// page instead, and restore it.
func TestCutMidPinTearsTheDump(t *testing.T) {
	const pages = 32
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.Device().WritePages(p, 200, bytes.Repeat([]byte{0x77}, pages*ps)); err != nil {
			t.Fatalf("block write: %v", err)
		}
		if err := s.Device().Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		e.Go("pinner", func(w *sim.Proc) { _ = s.BAPin(w, 0, 0, 200, pages) })
		p.Sleep(10 * sim.Microsecond) // the entry is installed, the move has begun
		if len(s.Entries()) != 1 {
			t.Fatal("the pin's entry is not installed at the cut")
		}
		if _, err := s.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		p.Sleep(sim.Millisecond) // the pin's last reads land
		if err := s.PowerOn(p); !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Fatalf("power on: err = %v, want the torn dump page refused", err)
		}
	})
	e.Run()
}
