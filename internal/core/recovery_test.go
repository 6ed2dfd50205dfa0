package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

func TestPowerLossPersistsSyncedData(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	payload := []byte("committed transaction log record")
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 1, ps, 7, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		s.Mmio().Write(p, ps, payload)
		s.BASync(p, 1)

		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if !rep.Persisted {
			t.Fatal("dump not persisted")
		}
		if rep.EnergyUsedJ >= rep.EnergyBudgetJ {
			t.Fatalf("energy %.2f mJ over budget %.2f mJ", rep.EnergyUsedJ*1e3, rep.EnergyBudgetJ*1e3)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		// BA-buffer content and mapping table restored.
		got := make([]byte, len(payload))
		if err := s.Mmio().Read(p, ps, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("restored %q, want %q", got, payload)
		}
		ent, err := s.BAGetEntryInfo(p, 1)
		if err != nil {
			t.Fatalf("entry lost: %v", err)
		}
		if ent.LBA != 7 || ent.Pages != 2 || ent.Offset != ps {
			t.Errorf("entry = %+v", ent)
		}
		// Pinned range still gated after recovery.
		if err := s.Device().WritePages(p, 7, make([]byte, ps)); !errors.Is(err, ErrPinnedRange) {
			t.Errorf("gate not restored: err = %v", err)
		}
		// And the recovered entry can be flushed to NAND.
		if err := s.BAFlush(p, 1); err != nil {
			t.Fatalf("flush after recovery: %v", err)
		}
		data := make([]byte, s.PageSize())
		if err := s.Device().ReadPagesInto(p, 7, data); err != nil {
			t.Fatalf("block read: %v", err)
		}
		if !bytes.HasPrefix(data, payload) {
			t.Error("flushed data wrong after recovery")
		}
	})
	e.Run()
}

func TestPowerLossDropsUnsyncedWCData(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		s.Mmio().Write(p, 0, []byte{0xAB, 0xCD}) // never synced
		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if rep.LostWCBursts == 0 {
			t.Error("expected lost WC bursts")
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		got := make([]byte, 2)
		s.Mmio().Read(p, 0, got)
		if got[0] == 0xAB {
			t.Error("unsynced data survived power loss — durability model broken")
		}
		_ = ps
	})
	e.Run()
}

func TestPowerLossWithInsufficientCapacitors(t *testing.T) {
	cfg := testConfig()
	cfg.CapacitorsUF = []float64{0.001} // hopeless
	e := sim.NewEnv()
	s := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		s.BAPin(p, 0, 0, 0, 1)
		s.Mmio().Write(p, 0, []byte{1})
		s.BASync(p, 0)
		_, err := s.PowerLoss(p)
		if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("err = %v, want ErrInsufficient", err)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		// No dump image: buffer comes up empty, entry table empty.
		got := make([]byte, 1)
		s.Mmio().Read(p, 0, got)
		if got[0] != 0 {
			t.Error("data survived an under-provisioned dump")
		}
		if len(s.Entries()) != 0 {
			t.Error("entries survived an under-provisioned dump")
		}
	})
	e.Run()
}

func TestAPIsRejectedWhilePoweredOff(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if _, err := s.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := s.BAPin(p, 0, 0, 0, 1); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("pin err = %v", err)
		}
		if err := s.BASync(p, 0); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("sync err = %v", err)
		}
		if _, err := s.PowerLoss(p); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("double power-loss err = %v", err)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if err := s.PowerOn(p); err == nil {
			t.Error("double power-on accepted")
		}
	})
	e.Run()
}

func TestRepeatedPowerCycles(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 3, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		for cycle := byte(1); cycle <= 4; cycle++ {
			s.Mmio().Write(p, 0, []byte{cycle})
			s.BASync(p, 0)
			if _, err := s.PowerLoss(p); err != nil {
				t.Fatalf("cycle %d loss: %v", cycle, err)
			}
			if err := s.PowerOn(p); err != nil {
				t.Fatalf("cycle %d on: %v", cycle, err)
			}
			got := make([]byte, 1)
			s.Mmio().Read(p, 0, got)
			if got[0] != cycle {
				t.Fatalf("cycle %d: got %d", cycle, got[0])
			}
		}
		_ = ps
	})
	e.Run()
}

func TestDumpIsDieParallel(t *testing.T) {
	// The dump of the whole BA-buffer must complete in roughly
	// (pages-per-die-block) serial programs, not (total-pages) —
	// otherwise capacitors could never cover it. Only mapped pages are
	// dumped, so the table maps the whole buffer first.
	e := sim.NewEnv()
	cfg := testConfig()
	s := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, s.BufferPages()); err != nil {
			t.Fatalf("pin: %v", err)
		}
		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		// 64 buffer pages over 4 dies => 16+1 pages/block; each program
		// ≈ 53.4 µs => ~0.9 ms. Serial would be ~3.4 ms.
		if rep.DumpDuration < 800*sim.Microsecond || rep.DumpDuration > 2*sim.Millisecond {
			t.Errorf("dump took %v — not one die-parallel full-buffer dump", rep.DumpDuration)
		}
	})
	e.Run()
}

// fill writes and syncs one byte pattern over an entry's window.
func fill(t *testing.T, p *sim.Proc, s *TwoBSSD, eid EID, b byte) {
	t.Helper()
	ent, err := s.BAGetEntryInfo(p, eid)
	if err != nil {
		t.Fatalf("entry %d: %v", eid, err)
	}
	if err := s.Mmio().Write(p, ent.Offset, bytes.Repeat([]byte{b}, ent.Bytes(s.PageSize()))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.BASync(p, eid); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// readBuf reads n committed BA-buffer bytes at off.
func readBuf(t *testing.T, p *sim.Proc, s *TwoBSSD, off, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if err := s.Mmio().Read(p, off, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

// cycle cuts power and brings the device back up.
func cycle(t *testing.T, p *sim.Proc, s *TwoBSSD) error {
	t.Helper()
	_, lerr := s.PowerLoss(p)
	if err := s.PowerOn(p); err != nil {
		t.Fatalf("power on: %v", err)
	}
	if !s.Armed() {
		t.Fatal("powered on but not armed for a full-buffer dump")
	}
	return lerr
}

// A second cut right after power-on lands behind the image just
// restored, with no erase between: it restores its own table — entry B
// — and never the first image's entry A or A's bytes.
func TestSecondCutWithoutEraseRestoresOnlyItsOwnImage(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	blk0 := s.rec.dumpBlocks[0]
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 1, 0, 10, 2); err != nil {
			t.Fatalf("pin A: %v", err)
		}
		fill(t, p, s, 1, 0xAA)
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut 1: %v", err)
		}
		if s.Device().Flash().EraseCount(blk0) != 0 || s.Device().Flash().NextPage(blk0) == 0 {
			t.Fatal("the dump area was erased after a one-window image")
		}
		if err := s.BAFlush(p, 1); err != nil {
			t.Fatalf("flush A: %v", err)
		}
		if err := s.BAPin(p, 2, 4*ps, 20, 1); err != nil {
			t.Fatalf("pin B: %v", err)
		}
		fill(t, p, s, 2, 0xBB)
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut 2: %v", err)
		}
		if s.Device().Flash().EraseCount(blk0) != 0 {
			t.Fatal("the dump area was erased between two small images")
		}
		ents := s.Entries()
		if len(ents) != 1 || ents[0].ID != 2 {
			t.Fatalf("restored entries %+v, want only B", ents)
		}
		if got := readBuf(t, p, s, 0, 2*ps); !bytes.Equal(got, make([]byte, 2*ps)) {
			t.Error("A's window came back from the first image")
		}
		if got := readBuf(t, p, s, 4*ps, ps); !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, ps)) {
			t.Error("B's window not restored")
		}
	})
	e.Run()
}

// A torn second dump comes up empty and zeroed — never as the first,
// complete image that still sits on the flash in front of it.
func TestTornSecondDumpNeverRestoresTheFirst(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, CutDumpAfterPages: 3})
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 1, 0, 10, 1); err != nil {
			t.Fatalf("pin A: %v", err)
		}
		fill(t, p, s, 1, 0xAA)
		if err := cycle(t, p, s); err != nil { // 2 pages: under the cut
			t.Fatalf("cut 1: %v", err)
		}
		if err := s.BAFlush(p, 1); err != nil {
			t.Fatalf("flush A: %v", err)
		}
		if err := s.BAPin(p, 2, 4*ps, 20, 12); err != nil {
			t.Fatalf("pin B: %v", err)
		}
		fill(t, p, s, 2, 0xBB)
		if err := cycle(t, p, s); !errors.Is(err, ErrDumpTorn) {
			t.Fatalf("cut 2: err = %v, want ErrDumpTorn", err)
		}
		if ents := s.Entries(); len(ents) != 0 {
			t.Fatalf("a torn dump restored entries %+v", ents)
		}
		if got := readBuf(t, p, s, 0, s.BufferPages()*ps); !bytes.Equal(got, make([]byte, len(got))) {
			t.Error("a torn dump left buffer bytes behind")
		}
	})
	e.Run()
}

// The procs keep running while the capacitors dump: a BA_FLUSH that
// completes mid-dump removes its entry from the live table. The image
// is the table at the cut, so the entry and its pages come back
// together — the metadata page never names a different table than the
// pages it was written with.
func TestFlushCompletingMidDumpRestoresConsistentImage(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 4); err != nil {
			t.Fatalf("pin A: %v", err)
		}
		if err := s.BAPin(p, 1, 8*ps, 30, 8); err != nil {
			t.Fatalf("pin B: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		fill(t, p, s, 1, 0xBB)
		var flushErr error
		flushed := sim.Time(-1)
		e.Go("flusher", func(w *sim.Proc) {
			flushErr = s.BAFlush(w, 0)
			flushed = e.Now()
		})
		start := e.Now()
		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if flushErr != nil || flushed < start || flushed >= e.Now() {
			t.Fatalf("flush err=%v at %v, want it done inside the dump [%v, %v)", flushErr, flushed, start, e.Now())
		}
		_ = rep
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		ents := s.Entries()
		if len(ents) != 2 || ents[0].ID != 0 || ents[1].ID != 1 {
			t.Fatalf("restored entries %+v, want A and B as at the cut", ents)
		}
		if got := readBuf(t, p, s, 0, 4*ps); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 4*ps)) {
			t.Error("A's window does not match its restored entry")
		}
		if got := readBuf(t, p, s, 8*ps, 8*ps); !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 8*ps)) {
			t.Error("B's window does not match its restored entry")
		}
	})
	e.Run()
}

// Only mapped pages are dumped: a synced byte on a page no entry maps
// reads zero after the restore.
func TestUnmappedPagesRestoreZeroed(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 2*ps, 10, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		fill(t, p, s, 0, 0xAA)
		if err := s.Mmio().Write(p, 5*ps, []byte{0x55}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.Mmio().Sync(p, 5*ps, 1); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := cycle(t, p, s); err != nil {
			t.Fatalf("cut: %v", err)
		}
		if got := readBuf(t, p, s, 5*ps, 1); got[0] != 0 {
			t.Errorf("unmapped page restored as %#x, want 0", got[0])
		}
		if got := readBuf(t, p, s, 2*ps, ps); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, ps)) {
			t.Error("mapped page not restored")
		}
	})
	e.Run()
}

// The dump area is erased only when it could not take another
// full-buffer dump: on every cycle of a full table, on every 4th of a
// quarter-buffer one (16 of 64 pages: 4+1 pages a cycle in block 0,
// which a full dump needs 16+1 of 32 in). Armed() holds after every
// power-on.
func TestDumpAreaEraseCadence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pages  int
		erased []bool // per cycle: did PowerOn erase?
	}{
		{"full", 64, []bool{true, true, true, true, true}},
		{"quarter", 16, []bool{false, false, false, true, false, false, false, true}},
		{"none", 0, []bool{false, false, false, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEnv()
			s := newSSD(e)
			blk0 := s.rec.dumpBlocks[0]
			e.Go("t", func(p *sim.Proc) {
				if tc.pages > 0 {
					if err := s.BAPin(p, 0, 0, 0, tc.pages); err != nil {
						t.Fatalf("pin: %v", err)
					}
				}
				for i, want := range tc.erased {
					before := s.Device().Flash().EraseCount(blk0)
					if tc.pages > 0 {
						fill(t, p, s, 0, byte(i+1))
					}
					if err := cycle(t, p, s); err != nil {
						t.Fatalf("cycle %d: %v", i+1, err)
					}
					if got := s.Device().Flash().EraseCount(blk0) > before; got != want {
						t.Fatalf("cycle %d: erased = %v, want %v", i+1, got, want)
					}
					if tc.pages > 0 {
						if got := readBuf(t, p, s, 0, 1); got[0] != byte(i+1) {
							t.Fatalf("cycle %d: restored %d", i+1, got[0])
						}
					}
				}
			})
			e.Run()
		})
	}
}

func TestMetaCodecRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		s.BAPin(p, 0, 0, 0, 1)
		s.BAPin(p, 5, 8*ps, 40, 3)
	})
	e.Run()
	meta := s.rec.encodeMeta(s.Entries())
	entries, err := s.rec.decodeMeta(meta)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("decoded %d entries", len(entries))
	}
	if entries[1].ID != 5 || entries[1].Offset != 8*ps || entries[1].LBA != 40 || entries[1].Pages != 3 {
		t.Fatalf("entry = %+v", entries[1])
	}
	// Corrupt the CRC region: decode must fail.
	meta[20] ^= 0xFF
	if _, err := s.rec.decodeMeta(meta); err == nil {
		t.Fatal("corrupted metadata accepted")
	}
	// Corrupt the magic: decode must fail.
	meta[0] = 0
	if _, err := s.rec.decodeMeta(meta); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Property: any synced byte pattern at any page-aligned pin survives a
// full power cycle bit-for-bit.
func TestPropertyPowerCyclePreservesSyncedBytes(t *testing.T) {
	cfg := testConfig()
	prop := func(data []byte, pageSeed uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		e := sim.NewEnv()
		s := New(e, cfg)
		ps := s.PageSize()
		page := int(pageSeed) % s.BufferPages()
		ok := true
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, page*ps, 0, 1); err != nil {
				ok = false
				return
			}
			s.Mmio().Write(p, page*ps, data)
			s.BASync(p, 0)
			if _, err := s.PowerLoss(p); err != nil {
				ok = false
				return
			}
			if err := s.PowerOn(p); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(data))
			s.Mmio().Read(p, page*ps, got)
			ok = bytes.Equal(got, data)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
