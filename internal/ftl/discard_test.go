package ftl

import (
	"bytes"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/nand"
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
				if err := f.WritePage(p, lba, data); err != nil {
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
	if erases, runs := counter(t, e, "nand.block_erases"), counter(t, e, "ftl.gc_runs"); erases != 0 || runs != 0 {
		t.Fatalf("%d erases, %d collections: the drive was meant never to collect", erases, runs)
	}
	if overwrites == 0 || trims == 0 || moves == 0 {
		t.Fatalf("%d overwrites, %d trims, %d relocations: a way of dropping a page went unexercised", overwrites, trims, moves)
	}
	zero := make([]byte, f.PageSize())
	for _, ppa := range superseded {
		if _, owned := f.owner(ppa); owned {
			t.Fatalf("ppa %d is mapped again", ppa)
		}
		if !bytes.Equal(f.flash.PeekPage(ppa), zero) {
			t.Errorf("superseded ppa %d still holds bytes", ppa)
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
	if counter(t, e, "fault.uncorrectable_reads") == 0 {
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
		got := make([]byte, f.PageSize())
		if err := f.ReadPageInto(p, lba, got); err != nil {
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

// A relocation copy that loses its race with a host write holds no
// bytes. The write lands after the run has read the LBA's page and
// before the run rebinds it, so the copy stays unmapped — and, because
// bytes move only at the rebind, empty: no stale image of the LBA is
// left on the flash for anything to find.
func TestLostRaceCopyHoldsNoBytes(t *testing.T) {
	e := sim.NewEnv()
	f := newTestFTL(e)
	fc := f.flash.Config()
	const lba = 4 // page 1 of die 0's block
	readRun := sim.Duration(fc.PagesPerBlock) * (fc.ReadLatency + fc.TransferTime(fc.PageSize))
	var written, moved sim.Time
	var dst nand.PPA
	e.Go("t", func(p *sim.Proc) {
		// Die d's block holds LBAs d, d+4, d+8, ... in page order, every
		// page valid and tagged.
		for i := 0; i < fc.Dies()*fc.PagesPerBlock; i++ {
			if err := f.WritePage(p, LBA(i), []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		victim := f.open[0].blk
		f.nextDie = 1 // the host write programs on die 1; the run lands on idle die 0
		e.Go("writer", func(q *sim.Proc) {
			q.Sleep(readRun + sim.Microsecond)
			if err := f.WritePage(q, lba, []byte{0xEE}); err != nil {
				t.Error(err)
			}
			written = e.Now()
		})
		t0 := e.Now()
		f.gcLock.Acquire(p)
		err := f.evacuate(p, victim, false, f.cGCReloc, false)
		f.gcLock.Release()
		if err != nil {
			t.Fatalf("evacuate: %v", err)
		}
		moved = e.Now()
		if written == 0 || written < t0+sim.Time(readRun) || written >= moved {
			t.Fatalf("host write at %d, run read until %d and rebound at %d: the race was not exercised",
				written, t0+sim.Time(readRun), moved)
		}
		// The run kept the victim's page order: LBA 0's copy is its first
		// page, and the lost copy of LBA 4 the one after it.
		base, _ := f.lookup(0)
		dst = base + 1
		if fc.BlockOf(dst) != fc.BlockOf(base) || f.flash.NextPage(fc.BlockOf(dst)) != fc.PagesPerBlock {
			t.Fatalf("the run did not program a whole block from ppa %d", base)
		}
		got := make([]byte, f.PageSize())
		if err := f.ReadPageInto(p, lba, got); err != nil || got[0] != 0xEE {
			t.Fatalf("lba %d reads %x, %v; want the host write", lba, got[0], err)
		}
	})
	e.Run()
	if got := counter(t, e, "ftl.gc_relocations"); got != uint64(fc.PagesPerBlock) {
		t.Fatalf("%d pages relocated, want the victim's %d", got, fc.PagesPerBlock)
	}
	if _, owned := f.owner(dst); owned {
		t.Fatalf("the copy at ppa %d is mapped", dst)
	}
	if !bytes.Equal(f.flash.PeekPage(dst), make([]byte, f.PageSize())) {
		t.Errorf("the lost copy at ppa %d holds bytes", dst)
	}
	if f.flash.CorruptPage(dst, 1) {
		t.Errorf("CorruptPage found bytes at the lost copy, ppa %d", dst)
	}
	checkMaps(t, f)
}
