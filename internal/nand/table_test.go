package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"twobssd/internal/sim"
)

// checkTables asserts the page-table rule on every block: a block has a
// table exactly while one of its pages holds bytes, held counts those
// pages, and every table on the spare list is all zero.
func checkTables(f *Flash) error {
	for b := range f.blocks {
		blk := &f.blocks[b]
		holding := 0
		for _, pg := range blk.pages {
			if pg.data != nil {
				holding++
			}
		}
		if (blk.pages != nil) != (blk.held > 0) || blk.held != holding {
			return fmt.Errorf("block %d: table %v, held %d, %d pages holding bytes",
				b, blk.pages != nil, blk.held, holding)
		}
	}
	for k, tab := range f.tables {
		for i, pg := range tab {
			if pg.data != nil || pg.tag != 0 {
				return fmt.Errorf("spare table %d: page %d is not zero", k, i)
			}
		}
	}
	return nil
}

// Property: over a seeded random mix of tagged programs, copy-back runs
// and their moves, discards, erases and corruptions, a block keeps a
// page table exactly while one of its pages holds bytes, tables return
// to the spare list all zero, and every page reads back — bytes and
// tag — as a reference model of the array says.
func TestPropertyPageTableFollowsHeldPages(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		e := sim.NewEnv()
		f := New(e, testConfig())
		c := f.Config()
		type want struct {
			data []byte // nil while the page holds no bytes
			tag  uint32
		}
		ref := make(map[PPA]want)
		rng := rand.New(rand.NewSource(seed))
		randomPage := func() []byte {
			data := make([]byte, 1+rng.Intn(c.PageSize))
			if rng.Intn(4) == 0 {
				return data // all zero: holds no bytes but its tag
			}
			last := 1 + rng.Intn(len(data))
			for i := 0; i < last; i++ {
				data[i] = byte(rng.Intn(256))
			}
			data[last-1] |= 1
			return data
		}
		holding := func() (PPA, bool) { // from a random page on, in address order
			from := rng.Intn(c.Pages())
			for i := 0; i < c.Pages(); i++ {
				ppa := PPA((from + i) % c.Pages())
				if ref[ppa].data != nil {
					return ppa, true
				}
			}
			return 0, false
		}
		got := make([]byte, c.PageSize)
		e.Go("t", func(p *sim.Proc) {
			for step := 0; step < 400; step++ {
				blk := BlockID(rng.Intn(c.Blocks()))
				base := PPA(uint64(blk) * uint64(c.PagesPerBlock))
				next := f.NextPage(blk)
				var op string
				switch r := rng.Intn(10); {
				case r < 4 && next < c.PagesPerBlock:
					op = "program"
					data, tag := randomPage(), rng.Uint32()
					if err := f.ProgramPageTagged(p, base+PPA(next), data, tag); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					full := make([]byte, c.PageSize)
					copy(full, data)
					ref[base+PPA(next)] = want{full, tag}
				case r < 6 && next < c.PagesPerBlock:
					op = "run+move"
					n := 1 + rng.Intn(c.PagesPerBlock-next)
					if err := f.ProgramRun(p, base+PPA(next), n); err != nil {
						t.Fatalf("seed %d step %d: run of %d: %v", seed, step, n, err)
					}
					for i := 0; i < n; i++ {
						src, ok := holding()
						if !ok || rng.Intn(3) == 0 {
							continue // a copy the map never takes holds nothing
						}
						dst := base + PPA(next+i)
						f.Move(src, dst)
						ref[dst] = ref[src]
						delete(ref, src)
					}
				case r < 8:
					op = "discard"
					ppa := PPA(rng.Intn(c.Pages()))
					f.Discard(ppa)
					delete(ref, ppa)
				case r < 9:
					op = "erase"
					if err := f.EraseBlock(p, blk); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					for i := 0; i < c.PagesPerBlock; i++ {
						delete(ref, base+PPA(i))
					}
				default:
					op = "corrupt"
					ppa := PPA(rng.Intn(c.Pages()))
					n := rng.Intn(c.PageSize + 8)
					w, holds := ref[ppa]
					holds = holds && w.data != nil
					if got := f.CorruptPage(ppa, n); got != holds {
						t.Fatalf("seed %d step %d: CorruptPage = %v on a page holding bytes %v", seed, step, got, holds)
					}
					if holds {
						for i := 0; i < min(n, c.PageSize); i++ {
							w.data[i] ^= 1
						}
					}
				}
				if err := checkTables(f); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
				}
				for ppa := PPA(0); ppa < PPA(c.Pages()); ppa++ {
					w := ref[ppa]
					data := w.data
					if data == nil {
						data = f.zero
					}
					if tag := f.capture(ppa, got); !bytes.Equal(got, data) || tag != w.tag {
						t.Fatalf("seed %d step %d (%s): ppa %d reads tag %#x, want %#x, bytes equal %v",
							seed, step, op, ppa, tag, w.tag, bytes.Equal(got, data))
					}
				}
			}
		})
		e.Run()
	}
}

// Once a table has been made, a program/discard/erase cycle that fills
// one block and runs into the next — two tables taken and given back —
// allocates nothing.
func TestTableCycleAcrossBlocksDoesNotAllocate(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	data := classPage(c.PageSize, 100)
	var allocs float64
	e.Go("t", func(p *sim.Proc) {
		cycle := func() {
			for i := 0; i <= c.PagesPerBlock; i++ {
				ppa := PPA(i) // block 0's pages, then block 1's first
				if err := f.ProgramPage(p, ppa, data); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					f.Discard(ppa - 1)
				}
			}
			for blk := BlockID(0); blk < 2; blk++ {
				if err := f.EraseBlock(p, blk); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle()
		allocs = testing.AllocsPerRun(20, cycle)
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("%.2f allocations per cycle across a block boundary, want 0", allocs)
	}
	if f.blocks[0].pages != nil || f.blocks[1].pages != nil || len(f.tables) != 2 {
		t.Fatalf("erased blocks keep tables (%v, %v) and %d are spare, want none and 2",
			f.blocks[0].pages != nil, f.blocks[1].pages != nil, len(f.tables))
	}
}
