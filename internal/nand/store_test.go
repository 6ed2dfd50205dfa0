package nand

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"twobssd/internal/sim"
)

// classPage is a page image whose last non-zero byte is at index
// last-1: last bytes of 0xA5, zeroes after.
func classPage(ps, last int) []byte {
	data := make([]byte, ps)
	for i := range last {
		data[i] = 0xA5
	}
	return data
}

// wantStored is the stored length of a page whose last non-zero byte is
// at index last-1 (last 0: all zeroes): the smallest class that holds
// it, found by doubling rather than by the code under test.
func wantStored(ps, last int) int {
	if last == 0 {
		return 0
	}
	n := minClass
	for n < last {
		n *= 2
	}
	return min(n, ps)
}

// Property: a page with any zero tail — all zeroes, full, or a short
// write — reads back zero-padded with its tag, and stores its bytes up
// to the smallest class boundary at or above its last non-zero byte.
// Pages are discarded as they go, so later ones land in reused buffers
// that still hold an earlier page's bytes.
func TestPropertyStoredLengthIsAClass(t *testing.T) {
	cfg := testConfig()
	ps := cfg.PageSize
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEnv()
		f := New(e, cfg)
		ok := true
		e.Go("t", func(p *sim.Proc) {
			got := make([]byte, ps)
			for i := 0; i < cfg.PagesPerBlock; i++ {
				var data []byte
				switch i {
				case 0:
					data = make([]byte, ps) // all zeroes
				case 1:
					data = bytes.Repeat([]byte{0xFF}, ps) // full
				case 2:
					data = nil // an empty write
				default:
					data = make([]byte, rng.Intn(ps+1)) // short writes too
					if len(data) > 0 && rng.Intn(4) > 0 {
						last := 1 + rng.Intn(len(data))
						rng.Read(data[:last])
						data[last-1] |= 1
					}
				}
				last := len(bytes.TrimRight(data, "\x00"))
				ppa := cfg.PPAOf(0, 0, i)
				tag := rng.Uint32()
				if err := f.ProgramPageTagged(p, ppa, data, tag); err != nil {
					t.Errorf("program %d: %v", i, err)
					ok = false
					return
				}
				if pg := f.stored(ppa); pg == nil || len(pg.data) != wantStored(ps, last) {
					t.Errorf("page %d (last non-zero byte %d) stores %v, want %d bytes", i, last-1, pg, wantStored(ps, last))
					ok = false
				}
				want := make([]byte, ps)
				copy(want, data)
				if gotTag, _, err := f.ReadPageInto(p, ppa, got); err != nil || gotTag != tag || !bytes.Equal(got, want) {
					t.Errorf("page %d reads back tag %d (want %d), equal %v, %v", i, gotTag, tag, bytes.Equal(got, want), err)
					ok = false
				}
				f.Discard(ppa)
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// An all-zero page stores no bytes but holds its tag through a read and
// a Move (the CRC of a zero page is not 0, and a layer above checks it);
// only a Discard drops the tag.
func TestZeroPageKeepsItsTag(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	const tag = 0xC0FFEE
	e.Go("t", func(p *sim.Proc) {
		src, dst := c.PPAOf(0, 0, 0), c.PPAOf(0, 1, 0)
		if err := f.ProgramPageTagged(p, src, make([]byte, c.PageSize), tag); err != nil {
			t.Fatal(err)
		}
		if pg := f.stored(src); pg == nil || pg.data == nil || len(pg.data) != 0 {
			t.Fatalf("an all-zero page stores %v, want an empty non-nil slice", pg)
		}
		got := bytes.Repeat([]byte{0xEE}, c.PageSize)
		if gotTag, _, err := f.ReadPageInto(p, src, got); err != nil || gotTag != tag || !bytes.Equal(got, f.zero) {
			t.Fatalf("all-zero page reads tag %#x, zero %v, %v", gotTag, bytes.Equal(got, f.zero), err)
		}
		if _, err := f.ProgramRun(p, dst, 1); err != nil {
			t.Fatal(err)
		}
		f.Move(src, dst)
		if gotTag, held := peekTag(f, dst); !held || gotTag != tag {
			t.Fatalf("moved all-zero page: tag %#x, held %v", gotTag, held)
		}
		f.Discard(dst)
		if gotTag, _, _ := f.ReadPageInto(p, dst, got); gotTag != 0 {
			t.Errorf("a discarded all-zero page reads tag %#x, want 0", gotTag)
		}
		for k := range f.spare {
			if len(f.spare[k]) != 0 {
				t.Errorf("discarding an all-zero page filed a buffer in class %d", k)
			}
		}
	})
	e.Run()
}

// CorruptPage past a short page's stored bytes grows the page first, so
// every flipped bit is one a read returns; it flips at most a page.
func TestCorruptPastStoredBytes(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	e.Go("t", func(p *sim.Proc) {
		short, zero := c.PPAOf(0, 0, 0), c.PPAOf(0, 0, 1)
		if err := f.ProgramPage(p, short, []byte{5}); err != nil {
			t.Fatal(err)
		}
		if err := f.ProgramPage(p, zero, nil); err != nil {
			t.Fatal(err)
		}
		if !f.CorruptPage(short, minClass+36) {
			t.Fatal("CorruptPage found no bytes")
		}
		want := make([]byte, c.PageSize)
		want[0] = 4
		for i := 1; i < minClass+36; i++ {
			want[i] = 1
		}
		if got := f.PeekPage(short); !bytes.Equal(got, want) || len(f.stored(short).data) != 2*minClass {
			t.Errorf("corrupted short page reads %v, stores %d bytes", got[:minClass+40], len(f.stored(short).data))
		}
		if !f.CorruptPage(zero, 2*c.PageSize) {
			t.Fatal("CorruptPage found no bytes on the all-zero page")
		}
		if got := f.PeekPage(zero); !bytes.Equal(got, bytes.Repeat([]byte{1}, c.PageSize)) {
			t.Error("corrupting an all-zero page did not flip the whole page")
		}
	})
	e.Run()
}

// Once every class has a spare buffer, a program/discard cycle over
// every class — and an all-zero page — allocates nothing.
func TestProgramDiscardCycleDoesNotAllocate(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	var pages [][]byte
	for k := range f.spare {
		pages = append(pages, classPage(c.PageSize, f.classSize(k)))
	}
	pages = append(pages, f.zero)
	if len(pages) > c.PagesPerBlock {
		t.Fatalf("%d pages do not fit one block", len(pages))
	}
	var allocs float64
	e.Go("t", func(p *sim.Proc) {
		cycle := func() {
			for i, data := range pages {
				ppa := c.PPAOf(0, 0, i)
				if err := f.ProgramPage(p, ppa, data); err != nil {
					t.Fatal(err)
				}
				f.Discard(ppa)
			}
			if err := f.EraseBlock(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		allocs = testing.AllocsPerRun(20, cycle)
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("%.2f allocations per program/discard cycle, want 0", allocs)
	}
}
