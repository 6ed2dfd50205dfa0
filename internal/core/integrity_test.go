package core

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// TestPinDetectsSilentCorruption covers the byte path's read boundary:
// BA_PIN's internal datapath must refuse to load a corrupted NAND page
// into the BA-buffer.
func TestPinDetectsSilentCorruption(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.Device().WritePages(p, 12, bytes.Repeat([]byte{0xEE}, ps)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := s.Device().Drain(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		ppa, ok := s.Device().FTL().PPAOf(12)
		if !ok {
			t.Error("page not mapped")
			return
		}
		s.Device().Flash().CorruptPage(ppa, 1)
		err := s.BAPin(p, 0, 0, 12, 1)
		if !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Errorf("pin of corrupted page: err = %v, want ErrPageCorrupt", err)
		}
		if len(s.Entries()) != 0 {
			t.Error("failed pin left a mapping entry behind")
		}
	})
	e.Run()
}

// TestRestoreDetectsCorruptedDump covers the post-recovery read path:
// a dump image corrupted on flash between power loss and power on must
// fail the restore instead of silently reviving wrong BA-buffer bytes.
func TestRestoreDetectsCorruptedDump(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 1, 0, 30, 1); err != nil {
			t.Errorf("pin: %v", err)
			return
		}
		if err := s.Mmio().Write(p, 0, bytes.Repeat([]byte{0x11}, ps)); err != nil {
			t.Errorf("mmio write: %v", err)
			return
		}
		if err := s.BASync(p, 1); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		if _, err := s.PowerLoss(p); err != nil {
			t.Errorf("power loss: %v", err)
			return
		}
		// Corrupt the first dumped BA-buffer page on flash.
		fc := s.Device().Flash().Config()
		ppa := nand.PPA(uint64(s.rec.dumpBlocks[0]) * uint64(fc.PagesPerBlock))
		if !s.Device().Flash().CorruptPage(ppa, 1) {
			t.Error("CorruptPage found no dump image")
			return
		}
		err := s.PowerOn(p)
		if !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Errorf("power on over corrupted dump: err = %v, want ErrPageCorrupt", err)
		}
	})
	e.Run()
}
