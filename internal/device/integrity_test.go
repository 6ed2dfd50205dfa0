package device

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// TestReadDetectsSilentCorruption is the block path's end-to-end
// integrity check: a page corrupted on flash after the host wrote it
// must fail the read with ErrPageCorrupt instead of returning wrong
// bytes.
func TestReadDetectsSilentCorruption(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := d.WritePages(p, 7, bytes.Repeat([]byte{0x77}, ps)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := d.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		ppa, ok := d.FTL().PPAOf(7)
		if !ok {
			t.Error("page not mapped after drain")
			return
		}
		if !d.Flash().CorruptPage(ppa, 1) {
			t.Error("CorruptPage found no stored image")
			return
		}
		got := make([]byte, ps)
		if err := d.ReadPagesInto(p, 7, got); !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Errorf("read of corrupted page: err = %v, want ErrPageCorrupt", err)
		}
		// A healthy neighbour still reads fine.
		if err := d.WritePages(p, 8, bytes.Repeat([]byte{0x88}, ps)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := d.ReadPagesInto(p, 8, got); err != nil || got[0] != 0x88 {
			t.Errorf("healthy read: %v", err)
		}
	})
	e.Run()
}
