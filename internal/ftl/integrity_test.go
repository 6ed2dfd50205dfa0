package ftl

import (
	"bytes"
	"testing"

	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// TestTagsSurviveGC writes tagged pages, churns the FTL hard enough to
// force garbage collection (and hence relocation), and checks every
// page still reads back with its original tag intact and matching.
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
		for lba, data := range want {
			got, tag, tagged, err := f.ReadPageTagged(p, lba)
			if err != nil {
				t.Fatalf("read %d: %v", lba, err)
			}
			if !tagged {
				t.Fatalf("lba %d lost its tag across GC", lba)
			}
			if err := integrity.Check(got, tag); err != nil {
				t.Fatalf("lba %d: %v", lba, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("lba %d content mismatch", lba)
			}
		}
	})
	e.Run()
}

// TestUntaggedWritesStayUntagged checks the legacy WritePage path does
// not invent tags (so pre-integrity images keep working unverified).
func TestUntaggedWritesStayUntagged(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	e.Go("t", func(p *sim.Proc) {
		if err := f.WritePage(p, 5, []byte("plain")); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, _, tagged, err := f.ReadPageTagged(p, 5)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if tagged {
			t.Fatal("untagged write came back tagged")
		}
		// Unmapped pages are also untagged.
		_, _, tagged, err = f.ReadPageTagged(p, 6)
		if err != nil || tagged {
			t.Fatalf("unmapped read: tagged=%v err=%v", tagged, err)
		}
	})
	e.Run()
}

// TestCorruptionBreaksTagMatch flips bits under the FTL's feet and
// checks the tag no longer matches — the detection the upper layers
// rely on.
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
		got, tag, tagged, err := f.ReadPageTagged(p, 9)
		if err != nil || !tagged {
			t.Fatalf("read: tagged=%v err=%v", tagged, err)
		}
		if integrity.Check(got, tag) == nil {
			t.Fatal("corrupted page still matched its tag")
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
		if !r.Mapped || r.Repaired || r.Retries != 0 {
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
		for i, lba := range lbas {
			got, tag, tagged, err := f.ReadPageTagged(p, lba)
			if err != nil {
				t.Fatalf("read %d: %v", lba, err)
			}
			if !tagged {
				t.Fatalf("lba %d lost its tag across retirement", lba)
			}
			if err := integrity.Check(got, tag); err != nil {
				t.Fatalf("lba %d: %v", lba, err)
			}
			if got[0] != byte(0xC0+i) {
				t.Fatalf("lba %d content = %x", lba, got[0])
			}
		}
	})
	e.Run()
}
