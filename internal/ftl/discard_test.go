package ftl

import (
	"bytes"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/nand"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// Host memory follows the map: every page the FTL drops — overwritten,
// trimmed or relocated — holds no bytes and no tag on the flash from
// that moment, long before its block is erased (this drive never
// collects, so no block is).
func TestSupersededPagesHoldNoBytes(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	const lbas = 4
	version := func(lba LBA, round int) []byte { return bytes.Repeat([]byte{byte(lba), byte(round + 1)}, 8) }
	var superseded []nand.PPA
	live := map[LBA][]byte{}
	var overwrites, trims, moves int
	e.Go("t", func(p *sim.Proc) {
		for round := 0; round < 40; round++ {
			for lba := LBA(0); lba < lbas; lba++ {
				old, mapped := f.PPAOf(lba)
				if round%5 == 4 && lba == lbas-1 {
					if err := f.Trim(lba); err != nil {
						t.Fatal(err)
					}
					delete(live, lba)
					if mapped {
						superseded = append(superseded, old)
						trims++
					}
					continue
				}
				data := version(lba, round)
				if err := f.WritePageTagged(p, lba, data, uint32(round+1)); err != nil {
					t.Fatal(err)
				}
				live[lba] = data
				if mapped {
					superseded = append(superseded, old)
					overwrites++
				}
			}
		}
		// Relocation: move the live pages' blocks as a collection would,
		// without erasing them.
		var blocks []nand.BlockID
		for lba := LBA(0); lba < lbas; lba++ {
			if ppa, ok := f.PPAOf(lba); ok {
				blocks = append(blocks, f.flash.Config().BlockOf(ppa))
			}
		}
		f.gcLock.Acquire(p)
		for _, blk := range blocks {
			src := f.validPages(blk, nil)
			if err := f.evacuate(p, blk, false, f.cGCReloc, false); err != nil {
				t.Fatalf("evacuate: %v", err)
			}
			superseded = append(superseded, src...)
			moves += len(src)
		}
		f.gcLock.Release()
	})
	e.Run()
	if st := f.flash.Stats(); st.BlockErases != 0 || f.Stats().GCRuns != 0 {
		t.Fatalf("%d erases, %d collections: the drive was meant never to collect", st.BlockErases, f.Stats().GCRuns)
	}
	if overwrites == 0 || trims == 0 || moves == 0 {
		t.Fatalf("%d overwrites, %d trims, %d relocations: a way of dropping a page went unexercised", overwrites, trims, moves)
	}
	zero := make([]byte, f.PageSize())
	for _, ppa := range superseded {
		if _, owned := f.p2l[ppa]; owned {
			t.Fatalf("ppa %d is mapped again", ppa)
		}
		if !bytes.Equal(f.flash.PeekPage(ppa), zero) {
			t.Errorf("superseded ppa %d still holds bytes", ppa)
		}
		if _, tagged := f.flash.PeekTag(ppa); tagged {
			t.Errorf("superseded ppa %d still holds a tag", ppa)
		}
		if f.flash.CorruptPage(ppa, 1) {
			t.Errorf("CorruptPage found bytes at superseded ppa %d", ppa)
		}
	}
	for lba, want := range live {
		ppa, _ := f.PPAOf(lba)
		if got := f.flash.PeekPage(ppa); !bytes.HasPrefix(got, want) {
			t.Errorf("lba %d: live page holds %x, want %x", lba, got[:len(want)], want)
		}
	}
	checkMaps(t, f)
	t.Logf("%d overwrites, %d trims, %d relocations dropped their pages", overwrites, trims, moves)
}

// racingOverwrite reads an LBA on a drive where every read fails ECC,
// while a writer overwrites it 5 µs in: the overwrite lands — and drops
// the page the read is on — during the read's retries, before its
// salvage. read must return one of the two versions, never the zeroes
// a discarded page holds.
func racingOverwrite(t *testing.T, read func(p *sim.Proc, f *FTL, lba LBA) []byte) {
	t.Helper()
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 1, BER: &fault.BERModel{
		Base: 1e-1, ECCBits: 40, RetrySteps: 2, RetryLatency: 60 * sim.Microsecond,
	}})
	f := newTestFTL(e)
	const lba = 7
	v1 := bytes.Repeat([]byte{0x11}, f.PageSize())
	v2 := bytes.Repeat([]byte{0x22}, f.PageSize())
	var got []byte
	var overwritten, returned sim.Time
	e.Go("reader", func(p *sim.Proc) {
		if err := f.WritePage(p, lba, v1); err != nil {
			t.Fatal(err)
		}
		e.Go("writer", func(q *sim.Proc) {
			q.Sleep(5 * sim.Microsecond)
			if err := f.WritePage(q, lba, v2); err != nil {
				t.Error(err)
			}
			overwritten = e.Now()
		})
		got = read(p, f, lba)
		returned = e.Now()
	})
	e.Run()
	if n := obs.Of(e).Registry().Counter("fault.uncorrectable_reads").Value(); n == 0 {
		t.Fatal("the read never failed ECC; the test exercises nothing")
	}
	if overwritten == 0 || overwritten >= returned {
		t.Fatalf("overwrite at %d, read returned at %d: the race was not exercised", overwritten, returned)
	}
	if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
		t.Fatalf("read returned %x..., neither version of the page", got[:8])
	}
}

func TestUncorrectableReadRacingOverwrite(t *testing.T) {
	racingOverwrite(t, func(p *sim.Proc, f *FTL, lba LBA) []byte {
		got, err := f.ReadPage(p, lba)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return got
	})
}

func TestUncorrectableScrubRacingOverwrite(t *testing.T) {
	racingOverwrite(t, func(p *sim.Proc, f *FTL, lba LBA) []byte {
		r, err := f.ScrubPage(p, lba)
		if err != nil || !r.Salvaged {
			t.Fatalf("scrub = %+v, %v; want a salvage", r, err)
		}
		return r.Data
	})
}
