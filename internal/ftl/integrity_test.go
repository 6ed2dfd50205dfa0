package ftl

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// TestTagsSurviveGC writes tagged pages, churns the FTL hard enough to
// force garbage collection (and hence relocation), and checks every
// page still reads back — through the check against its original tag.
func TestTagsSurviveGC(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	ps := f.PageSize()
	const live = 16
	want := make(map[LBA][]byte, live)
	e.Go("t", func(p *sim.Proc) {
		for round := 0; round < 40; round++ {
			for i := 0; i < live; i++ {
				lba := LBA(i)
				data := bytes.Repeat([]byte{byte(round), byte(i)}, ps/2)
				if err := f.WritePageTagged(p, lba, data, integrity.PageCRC(data)); err != nil {
					t.Fatalf("round %d write %d: %v", round, i, err)
				}
				want[lba] = data
			}
		}
		if counter(t, e, "ftl.gc_runs") == 0 {
			t.Fatal("workload did not trigger GC; test proves nothing")
		}
		got := make([]byte, ps)
		for lba, data := range want {
			if err := f.ReadPageInto(p, lba, got); err != nil {
				t.Fatalf("read %d: %v", lba, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("lba %d content mismatch", lba)
			}
		}
	})
	e.Run()
}

// TestWritePageIsChecked writes short pages through WritePage, which
// tags each with the CRC of the zero-padded page: it reads back clean,
// and once a bit past the bytes the flash stores of it is flipped under
// the FTL's feet (the second CorruptPage undoes the first one's flips
// below byte 64 and adds byte 64's) the read fails the check. The
// all-zero page stores no bytes at all, and its tag, the CRC of a zero
// page, is not 0: a store that dropped it would fail every read of the
// page. An unmapped LBA reads zeroes with nothing to check.
func TestWritePageIsChecked(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	zero := make([]byte, f.PageSize())
	if integrity.PageCRC(zero) == 0 {
		t.Fatal("the CRC of a zero page is 0; the test proves nothing")
	}
	e.Go("t", func(p *sim.Proc) {
		got := make([]byte, f.PageSize())
		for _, w := range []struct {
			lba  LBA
			data []byte
		}{{5, []byte("plain")}, {7, zero}} {
			lba, data := w.lba, w.data
			if err := f.WritePage(p, lba, data); err != nil {
				t.Fatalf("write %d: %v", lba, err)
			}
			err := f.ReadPageInto(p, lba, got)
			if err != nil || !bytes.HasPrefix(got, data) {
				t.Fatalf("read %d = %q, %v", lba, got[:5], err)
			}
			ppa, _ := f.PPAOf(lba)
			if !f.flash.CorruptPage(ppa, 64) || !f.flash.CorruptPage(ppa, 65) {
				t.Fatal("CorruptPage found no stored image")
			}
			if err := f.ReadPageInto(p, lba, got); !errors.Is(err, integrity.ErrPageCorrupt) {
				t.Fatalf("read of corrupted page %d = %v, want ErrPageCorrupt", lba, err)
			}
		}
		if err := f.ReadPageInto(p, 6, got); err != nil || !bytes.Equal(got, zero) {
			t.Fatalf("unmapped read: %v", err)
		}
	})
	e.Run()
}

// TestCorruptionBreaksTagMatch flips bits under the FTL's feet and
// checks that a read and a patrol read both catch it — the detection
// the upper layers rely on.
func TestCorruptionBreaksTagMatch(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xAB}, f.PageSize())
		if err := f.WritePageTagged(p, 9, data, integrity.PageCRC(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		ppa, ok := f.PPAOf(9)
		if !ok {
			t.Fatal("page not mapped")
		}
		if !f.flash.CorruptPage(ppa, 2) {
			t.Fatal("CorruptPage found no stored image")
		}
		dst := make([]byte, f.PageSize())
		if err := f.ReadPageInto(p, 9, dst); !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Fatalf("read of a corrupted page = %v, want ErrPageCorrupt", err)
		}
		if r, err := f.ScrubPage(p, 9); err != nil || !r.Corrupt {
			t.Fatalf("scrub of a corrupted page = %+v, %v", r, err)
		}
	})
	e.Run()
}

// TestScrubPageRewritesOnRetries checks the scrub primitive: a clean
// page is left alone; repair only moves the mapping when the LBA still
// points at the patrolled physical page.
func TestScrubPageRewritesOnRetries(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{3}, f.PageSize())
		if err := f.WritePageTagged(p, 4, data, integrity.PageCRC(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		before, _ := f.PPAOf(4)
		r, err := f.ScrubPage(p, 4)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if !r.Mapped || r.Repaired || r.Retries != 0 || r.Corrupt {
			t.Fatalf("clean page scrub = %+v", r)
		}
		if after, _ := f.PPAOf(4); after != before {
			t.Fatal("clean scrub moved the page")
		}
		// Unmapped LBA: a no-op.
		r, err = f.ScrubPage(p, 30)
		if err != nil || r.Mapped {
			t.Fatalf("unmapped scrub = %+v err=%v", r, err)
		}
		if _, err := f.ScrubPage(p, LBA(f.ExportedPages())); err == nil {
			t.Fatal("out-of-range scrub not rejected")
		}
	})
	e.Run()
}

// TestTagsSurviveRetirement forces a block retirement via ErrUncorrectable
// salvage and checks the evacuated pages keep their tags.
func TestTagsSurviveRetirement(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		var lbas []LBA
		for i := 0; i < 8; i++ {
			lba := LBA(40 + i)
			data := bytes.Repeat([]byte{byte(0xC0 + i)}, f.PageSize())
			if err := f.WritePageTagged(p, lba, data, integrity.PageCRC(data)); err != nil {
				t.Fatalf("write: %v", err)
			}
			lbas = append(lbas, lba)
		}
		ppa, _ := f.PPAOf(lbas[0])
		blk := f.flash.Config().BlockOf(ppa)
		if err := f.retireBlock(p, blk); err != nil {
			t.Fatalf("retire: %v", err)
		}
		got := make([]byte, f.PageSize())
		for i, lba := range lbas {
			if err := f.ReadPageInto(p, lba, got); err != nil {
				t.Fatalf("read %d: %v", lba, err)
			}
			if got[0] != byte(0xC0+i) {
				t.Fatalf("lba %d content = %x", lba, got[0])
			}
		}
	})
	e.Run()
}
