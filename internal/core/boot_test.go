package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// cursors is every dump block's program cursor.
func cursors(s *TwoBSSD) []int {
	var cs []int
	for _, blk := range s.rec.dumpBlocks {
		cs = append(cs, s.Device().Flash().NextPage(blk))
	}
	return cs
}

// dirty stages n pages in the device's write buffer from LBA 1000 on,
// so the next PowerLoss drains them on the reserve first.
func dirty(t *testing.T, p *sim.Proc, s *TwoBSSD, n int) {
	t.Helper()
	if err := s.Device().WritePages(p, 1000, bytes.Repeat([]byte{0xD1}, n*s.PageSize())); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// bootsEmpty checks that PowerOn brought up no image: no entry, every
// buffer byte zero.
func bootsEmpty(t *testing.T, s *TwoBSSD) {
	t.Helper()
	if ents := s.Entries(); len(ents) != 0 {
		t.Fatalf("booted entries %+v, want none", ents)
	}
	buf := make([]byte, s.frames.Len())
	s.frames.ReadAt(buf, 0)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("booted buffer bytes, want all zero")
	}
}

// The image is whole only if every dump block's cursor is the one its
// metadata page records: a page programmed at a spanned block's cursor
// after a persisted dump leaves the image unrestorable. (Block 0 stays
// ahead of that block, so the candidate is read and decodes.)
func TestBootChecksEveryCursor(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 5); err != nil { // slices of 2, 2 and 1 pages
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		if _, err := s.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if cs := cursors(s); !slices.Equal(cs, []int{3, 2, 1, 0}) {
			t.Fatalf("cursors %v", cs)
		}
		fl := s.Device().Flash()
		blk := s.rec.dumpBlocks[2]
		if err := fl.ProgramPageTagged(p, s.rec.blockBase(blk)+nand.PPA(fl.NextPage(blk)), nil, 0); err != nil {
			t.Fatalf("program: %v", err)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		bootsEmpty(t, s)
	})
	e.Run()
}

// A whole image leaves block 0's cursor ahead of every other dump
// block's, so power-on reads no candidate without that lead — sound
// only because PowerOn erases the area when block 0 has fallen behind
// (a torn dump that programmed nothing on block 0): the next whole image
// then leads again and is restored.
func TestBlockZeroBehindIsErased(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if _, err := s.PowerLoss(p); err != nil { // an empty image: block 0's metadata page
			t.Fatalf("power loss: %v", err)
		}
		fl := s.Device().Flash()
		blk := s.rec.dumpBlocks[1]
		for i := 0; i < 2; i++ { // a torn dump's pages on block 1, none on block 0
			if err := fl.ProgramPageTagged(p, s.rec.blockBase(blk)+nand.PPA(fl.NextPage(blk)), nil, 0); err != nil {
				t.Fatalf("program: %v", err)
			}
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if cs := cursors(s); !slices.Equal(cs, []int{0, 0, 0, 0}) {
			t.Fatalf("cursors %v: the area was not erased with block 0 behind", cs)
		}
		if err := s.BAPin(p, 0, 0, 10, 4); err != nil {
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut: %v", err)
		}
		if got := readBuf(t, p, s, 0, 4*s.PageSize()); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, len(got))) {
			t.Fatal("the image after the erase was not restored")
		}
	})
	e.Run()
}

// The dump stops where the capacitors' energy runs out, counted from
// the cut: with a bank too small for the dump, one the drain of a
// dirty write buffer spends, or one that ends while the metadata page
// would still be programming, it reports ErrInsufficient, lands no
// metadata page — only a data page already in flight at the end — and
// power-on comes up empty.
func TestReserveEndStopsTheDump(t *testing.T) {
	for _, tc := range []struct {
		name   string
		uf     float64
		dirty  int
		landed int // block 0's cursor after the cut
	}{
		{"undersized", 1, 0, 1},                   // 72 µJ: 12 µs, inside the first program
		{"spent by drain", 25, 64, 0},             // 1.8 mJ: 300 µs, a 2-page dump fits (TestRestoredImageIsRetired's first cut) but not the drain
		{"ends in the metadata program", 7, 0, 1}, // 84 µs: the data page lands at 53 µs, the metadata page would at 107 µs
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CapacitorsUF = []float64{tc.uf}
			e := sim.NewEnv()
			s := New(e, cfg)
			e.Go("t", func(p *sim.Proc) {
				if err := s.BAPin(p, 0, 0, 10, 1); err != nil {
					t.Fatalf("pin: %v", err)
				}
				fill(t, p, s, 0, 0xAA)
				if tc.dirty > 0 {
					dirty(t, p, s, tc.dirty)
				}
				if _, err := s.PowerLoss(p); !errors.Is(err, ErrInsufficient) {
					t.Fatalf("power loss: err = %v, want ErrInsufficient", err)
				}
				if cs := cursors(s); !slices.Equal(cs, []int{tc.landed, 0, 0, 0}) {
					t.Fatalf("dump cursors %v, want block 0 at %d", cs, tc.landed)
				}
				if err := s.PowerOn(p); err != nil {
					t.Fatalf("power on: %v", err)
				}
				bootsEmpty(t, s)
			})
			e.Run()
		})
	}
}

// A restored image is retired on media: after it, a cut whose drain
// spends the whole reserve lands no dump page, and power-on comes up
// empty — not with the image already restored, whose metadata page
// is still block 0's last.
func TestRestoredImageIsRetired(t *testing.T) {
	cfg := testConfig()
	cfg.CapacitorsUF = []float64{25}
	e := sim.NewEnv()
	s := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut 1: %v", err)
		}
		if len(s.Entries()) != 1 {
			t.Fatal("first image not restored")
		}
		dirty(t, p, s, 64)
		before := cursors(s)
		if _, err := s.PowerLoss(p); !errors.Is(err, ErrInsufficient) {
			t.Fatalf("cut 2: err = %v, want ErrInsufficient", err)
		}
		if after := cursors(s); !slices.Equal(after, before) {
			t.Fatalf("cut 2 landed dump pages: cursors %v → %v", before, after)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		bootsEmpty(t, s)
	})
	e.Run()
}

// An empty image is not retired: booting it again is the empty boot.
func TestEmptyImageIsNotRetired(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut: %v", err)
		}
		if cs := cursors(s); !slices.Equal(cs, []int{1, 0, 0, 0}) {
			t.Fatalf("cursors %v after an empty image, want only its metadata page", cs)
		}
	})
	e.Run()
}

// The metadata page's tag is marked, so no BA-buffer page passes for
// one: a torn dump whose last page on block 0 holds a well-formed
// metadata image — magic, CRC, the cursors every block has — as data
// comes up empty.
func TestBufferPageNeverPassesForMetadata(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{CutDumpAfterPages: 1}) // after the data page, before the metadata page
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		forged := s.rec.encodeMeta(s.Entries(), s.rec.cursorsAfter(0))
		if err := s.Mmio().Write(p, 0, forged); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.BASync(p, 0); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if _, err := s.PowerLoss(p); !errors.Is(err, ErrDumpTorn) {
			t.Fatalf("power loss: err = %v, want ErrDumpTorn", err)
		}
		fl := s.Device().Flash()
		blk0 := s.rec.dumpBlocks[0]
		if got := fl.PeekPage(s.rec.blockBase(blk0) + nand.PPA(fl.NextPage(blk0)-1)); !bytes.Equal(got, forged) {
			t.Fatal("block 0's last page is not the forged image")
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		bootsEmpty(t, s)
	})
	e.Run()
}

// core.New rejects a table whose metadata page cannot hold MaxEntries
// entries and the cursor record; encodeMeta would index past the page
// at the first PowerLoss with that many live entries.
func TestNewRejectsTableThatOverflowsTheMetadataPage(t *testing.T) {
	cfg := testConfig()
	blocks := cfg.Base.Nand.Dies() // one dump block per die at this geometry
	fit := (cfg.Base.Nand.PageSize - metaBytes(0, blocks)) / 24
	cfg.MaxEntries = fit
	New(sim.NewEnv(), cfg) // the largest table that fits builds
	defer func() {
		if recover() == nil {
			t.Fatalf("MaxEntries %d built", cfg.MaxEntries)
		}
	}()
	cfg.MaxEntries = fit + 1
	New(sim.NewEnv(), cfg)
}

// Seeded cut/boot cycles over torn dumps (CutDumpAfterPages), undersized
// and spent reserves, and empty, partial and full tables. After every
// PowerOn an image came back exactly when PowerLoss returned nil, and
// it is the table and the mapped bytes at the cut.
func TestSeededCutBootCycles(t *testing.T) {
	const drives, cuts = 25, 8
	n, restored, torn, spent := 0, 0, 0, 0
	for seed := uint64(1); seed <= drives; seed++ {
		rng := sim.NewRand(seed)
		cfg := testConfig()
		cfg.CapacitorsUF = [][]float64{cfg.CapacitorsUF, {45}, {25}}[rng.Intn(3)] // 9.7, 0.54, 0.3 ms
		e := sim.NewEnv()
		if rng.Intn(2) == 0 {
			fault.Install(e, fault.Plan{CutDumpAfterPages: 1 + rng.Intn(40)})
		}
		s := New(e, cfg)
		ps, pages := s.PageSize(), s.BufferPages()
		e.Go("t", func(p *sim.Proc) {
			for c := 0; c < cuts; c++ {
				for _, ent := range s.Entries() {
					if err := s.BAFlush(p, ent.ID); err != nil {
						t.Fatalf("seed %d cut %d: flush: %v", seed, c, err)
					}
				}
				switch rng.Intn(3) {
				case 1: // partial: up to one window in each eighth of the buffer
					for i := 0; i < 8; i++ {
						if rng.Intn(2) == 0 {
							pin(t, p, s, EID(i), i*pages/8, 1+rng.Intn(pages/8))
						}
					}
				case 2:
					pin(t, p, s, EID(rng.Intn(8)), 0, pages)
				}
				for _, ent := range s.Entries() {
					data := make([]byte, ent.Bytes(ps))
					for i := range data {
						data[i] = byte(rng.Uint64())
					}
					if err := s.Mmio().Write(p, ent.Offset, data); err != nil {
						t.Fatalf("write: %v", err)
					}
					if err := s.BASync(p, ent.ID); err != nil {
						t.Fatalf("sync: %v", err)
					}
				}
				if rng.Intn(3) == 0 {
					dirty(t, p, s, 1+rng.Intn(64))
				}
				want := s.Entries()
				wantBuf := make([]byte, s.frames.Len())
				for _, pg := range mappedPages(want, ps) {
					s.frames.ReadAt(wantBuf[pg*ps:(pg+1)*ps], pg*ps)
				}
				_, lerr := s.PowerLoss(p)
				if lerr != nil && !errors.Is(lerr, ErrInsufficient) && !errors.Is(lerr, ErrDumpTorn) {
					t.Fatalf("seed %d cut %d: power loss: %v", seed, c, lerr)
				}
				if err := s.PowerOn(p); err != nil {
					t.Fatalf("seed %d cut %d: power on: %v", seed, c, err)
				}
				if lerr != nil {
					want, wantBuf = nil, make([]byte, len(wantBuf))
				}
				got := make([]byte, len(wantBuf))
				s.frames.ReadAt(got, 0)
				if ents := s.Entries(); !slices.Equal(ents, want) || !bytes.Equal(got, wantBuf) {
					t.Fatalf("seed %d cut %d (power loss err %v): booted %+v, want %+v (bytes equal: %v)",
						seed, c, lerr, ents, want, bytes.Equal(got, wantBuf))
				}
				switch {
				case errors.Is(lerr, ErrInsufficient):
					spent++
				case lerr != nil:
					torn++
				case len(want) > 0:
					restored++
				}
				n++
			}
		})
		e.Run()
	}
	t.Logf("%d cycles: %d images restored, %d torn, %d out of reserve", n, restored, torn, spent)
	if n < 200 || restored == 0 || torn == 0 || spent == 0 {
		t.Fatal("the cycles do not mix restored, torn and out-of-reserve cuts")
	}
}

// pin pins entry eid over buffer pages [page, page+n), at the same LBAs.
func pin(t *testing.T, p *sim.Proc, s *TwoBSSD, eid EID, page, n int) {
	t.Helper()
	if err := s.BAPin(p, eid, page*s.PageSize(), ftl.LBA(page), n); err != nil {
		t.Fatalf("pin %d: %v", eid, err)
	}
}

// FuzzDumpMeta feeds decodeMeta arbitrary pages. It must never panic,
// and every page it accepts must re-encode to itself.
func FuzzDumpMeta(f *testing.F) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	f.Add(s.rec.encodeMeta(nil, s.rec.cursorsAfter(0)))
	f.Add(s.rec.encodeMeta([]Entry{{ID: 1, Offset: 0, LBA: 7, Pages: 2}, {ID: 7, Offset: 60 * ps, LBA: 90, Pages: 4}}, s.rec.cursorsAfter(6)))
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, ps)
		copy(page, data)
		entries, cs, err := s.rec.decodeMeta(page)
		if err != nil {
			return
		}
		if !bytes.Equal(s.rec.encodeMeta(entries, cs), page) {
			t.Fatalf("accepted page does not re-encode to itself: %+v %v", entries, cs)
		}
	})
}

// A metadata page with a count past the page, and one whose entries
// point outside the table or the buffer, are rejected, not sliced.
func TestDecodeMetaChecksBeforeItSlices(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	le := binary.LittleEndian
	seal := func(b []byte) []byte { // a CRC that matches, so only the range checks stand
		le.PutUint32(b[12:], crc32.ChecksumIEEE(b[16:]))
		return b
	}
	good := s.rec.encodeMeta([]Entry{{ID: 1, Offset: 2 * ps, LBA: 7, Pages: 2}}, s.rec.cursorsAfter(2))
	entry := 16 + 4*len(s.rec.dumpBlocks)
	for _, tc := range []struct {
		name string
		at   int
		val  uint64
		wide bool
	}{
		{"count past the page", 8, 1 << 20, false},
		{"count past the table", 8, uint64(s.cfg.MaxEntries + 1), false},
		{"ID past the table", entry, uint64(s.cfg.MaxEntries), false},
		{"offset past the buffer", entry + 4, uint64(s.frames.Len() + ps), true},
		{"span past the buffer", entry + 20, uint64(s.BufferPages()), false},
		{"offset wraps", entry + 4, ^uint64(0), true},
	} {
		b := slices.Clone(good)
		if tc.wide {
			le.PutUint64(b[tc.at:], tc.val)
		} else {
			le.PutUint32(b[tc.at:], uint32(tc.val))
		}
		if _, _, err := s.rec.decodeMeta(seal(b)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, _, err := s.rec.decodeMeta(seal(good)); err != nil {
		t.Fatalf("resealed good page rejected: %v", err)
	}
}

// A damaged candidate is not taken for no image: after a persisted
// dump, a metadata page whose bytes no longer match its tag fails
// PowerOn with ErrPageCorrupt, as a damaged slice page does.
func TestRestoreDetectsDamagedMeta(t *testing.T) {
	t.Run("corrupted", func(t *testing.T) {
		e := sim.NewEnv()
		s := newSSD(e)
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, 0, 10, 1); err != nil {
				t.Fatalf("pin: %v", err)
			}
			fill(t, p, s, 0, 0xAA)
			if _, err := s.PowerLoss(p); err != nil {
				t.Fatalf("power loss: %v", err)
			}
			fl := s.Device().Flash()
			blk0 := s.rec.dumpBlocks[0]
			if !fl.CorruptPage(s.rec.blockBase(blk0)+nand.PPA(fl.NextPage(blk0)-1), 1) {
				t.Fatal("no metadata page to corrupt")
			}
			if err := s.PowerOn(p); !errors.Is(err, integrity.ErrPageCorrupt) {
				t.Fatalf("power on: err = %v, want %v", err, integrity.ErrPageCorrupt)
			}
		})
		e.Run()
	})
}
