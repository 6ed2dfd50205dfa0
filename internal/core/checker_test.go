package core

import (
	"errors"
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// TestCheckerBoundaries pins one 4-page range and probes block I/O at
// every boundary relationship the half-open interval math can get
// wrong: exactly abutting below and above (allowed), straddling the
// start, straddling the end, fully inside, and fully containing the
// pinned mapping (all gated).
func TestCheckerBoundaries(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		// Pin [20, 24).
		if err := s.BAPin(p, 0, 0, 20, 4); err != nil {
			t.Errorf("pin: %v", err)
			return
		}
		cases := []struct {
			name  string
			lba   ftl.LBA
			pages int
			gated bool
		}{
			{"abut below [16,20)", 16, 4, false},
			{"abut above [24,28)", 24, 4, false},
			{"one page just below [19,20)", 19, 1, false},
			{"one page at start [20,21)", 20, 1, true},
			{"one page at last [23,24)", 23, 1, true},
			{"one page just above [24,25)", 24, 1, false},
			{"straddle start [18,22)", 18, 4, true},
			{"straddle end [22,26)", 22, 4, true},
			{"fully inside [21,23)", 21, 2, true},
			{"fully contains [19,25)", 19, 6, true},
			{"exact match [20,24)", 20, 4, true},
		}
		for _, tc := range cases {
			werr := s.Device().WritePages(p, tc.lba, make([]byte, tc.pages*ps))
			rerr := s.Device().ReadPagesInto(p, tc.lba, make([]byte, tc.pages*ps))
			if tc.gated {
				if !errors.Is(werr, ErrPinnedRange) {
					t.Errorf("%s: write err = %v, want ErrPinnedRange", tc.name, werr)
				}
				if !errors.Is(rerr, ErrPinnedRange) {
					t.Errorf("%s: read err = %v, want ErrPinnedRange", tc.name, rerr)
				}
			} else {
				if werr != nil {
					t.Errorf("%s: write gated: %v", tc.name, werr)
				}
				if rerr != nil {
					t.Errorf("%s: read gated: %v", tc.name, rerr)
				}
			}
		}
	})
	e.Run()
}

// TestCheckerFullTable fills the mapping table to its 8-entry limit
// with single-page pins spaced two pages apart, then checks every
// entry gates exactly its own page — the gaps between pins stay open
// even with the checker walking a full table.
func TestCheckerFullTable(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	cfg := testConfig()
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < cfg.MaxEntries; i++ {
			if err := s.BAPin(p, EID(i), i*ps, ftl.LBA(2*i), 1); err != nil {
				t.Errorf("pin %d: %v", i, err)
				return
			}
		}
		if got := len(s.Entries()); got != cfg.MaxEntries {
			t.Errorf("entries = %d, want %d", got, cfg.MaxEntries)
			return
		}
		for i := 0; i < cfg.MaxEntries; i++ {
			pinned := ftl.LBA(2 * i)
			if err := s.Device().WritePages(p, pinned, make([]byte, ps)); !errors.Is(err, ErrPinnedRange) {
				t.Errorf("pinned lba %d: write err = %v, want ErrPinnedRange", pinned, err)
			}
			gap := pinned + 1
			if err := s.Device().WritePages(p, gap, make([]byte, ps)); err != nil {
				t.Errorf("gap lba %d gated: %v", gap, err)
			}
		}
		// A multi-page write spanning a gap and a pin is gated; after
		// flushing that pin the same write goes through.
		if err := s.Device().WritePages(p, 1, make([]byte, 2*ps)); !errors.Is(err, ErrPinnedRange) {
			t.Errorf("span over pin: err = %v, want ErrPinnedRange", err)
		}
		if err := s.BAFlush(p, 1); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		if err := s.Device().WritePages(p, 1, make([]byte, 2*ps)); err != nil {
			t.Errorf("span after flush still gated: %v", err)
		}
	})
	e.Run()
}
