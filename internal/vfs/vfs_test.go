package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

func newFS(e *sim.Env) *FS {
	p := device.ULLSSD()
	p.Nand.Channels = 2
	p.Nand.DiesPerChannel = 2
	p.Nand.BlocksPerDie = 16
	p.Nand.PagesPerBlock = 16
	p.FTL.OverProvision = 0.25
	p.WriteBufferPages = 32
	p.DrainWorkers = 4
	return New(device.New(e, p))
}

func TestCreateOpenRemove(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, err := fs.Create("wal.log", 64*1024)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if f.Capacity() != 64*1024 {
		t.Fatalf("capacity = %d", f.Capacity())
	}
	if !fs.Exists("wal.log") {
		t.Fatal("file missing")
	}
	if _, err := fs.Create("wal.log", 1024); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	got, err := fs.Open("wal.log")
	if err != nil || got != f {
		t.Fatalf("open: %v", err)
	}
	if err := fs.Remove("wal.log"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := fs.Open("wal.log"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open removed err = %v", err)
	}
	if err := fs.Remove("wal.log"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestCapacityRoundsToPages(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, err := fs.Create("x", 100)
	if err != nil {
		t.Fatal(err)
	}
	if f.Capacity() != int64(fs.PageSize()) {
		t.Fatalf("capacity = %d, want one page", f.Capacity())
	}
}

func TestWriteReadAlignedAndUnaligned(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, _ := fs.Create("f", 64*1024)
	e.Go("t", func(p *sim.Proc) {
		// Unaligned write crossing a page boundary.
		data := bytes.Repeat([]byte{0xAB}, 6000)
		if err := f.WriteAt(p, 1000, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, 6000)
		if err := f.ReadAt(p, 1000, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("unaligned round trip failed")
		}
		// RMW preserved the untouched prefix.
		head := make([]byte, 1000)
		f.ReadAt(p, 0, head)
		for _, b := range head {
			if b != 0 {
				t.Fatal("RMW corrupted prefix")
			}
		}
		// Aligned fast path.
		aligned := bytes.Repeat([]byte{0x33}, 2*fs.PageSize())
		if err := f.WriteAt(p, int64(8*fs.PageSize()), aligned); err != nil {
			t.Fatalf("aligned write: %v", err)
		}
		got2 := make([]byte, len(aligned))
		f.ReadAt(p, int64(8*fs.PageSize()), got2)
		if !bytes.Equal(got2, aligned) {
			t.Fatal("aligned round trip failed")
		}
	})
	e.Run()
}

func TestSizeHighWaterMark(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, _ := fs.Create("f", 64*1024)
	e.Go("t", func(p *sim.Proc) {
		f.WriteAt(p, 100, []byte("abc"))
		if f.Size() != 103 {
			t.Errorf("size = %d", f.Size())
		}
		f.WriteAt(p, 0, []byte("x"))
		if f.Size() != 103 {
			t.Errorf("size shrank: %d", f.Size())
		}
	})
	e.Run()
}

func TestBoundsChecks(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, _ := fs.Create("f", 8192)
	e.Go("t", func(p *sim.Proc) {
		if err := f.WriteAt(p, 8190, []byte("abc")); !errors.Is(err, ErrPastEnd) {
			t.Errorf("past-end write err = %v", err)
		}
		if err := f.ReadAt(p, -1, make([]byte, 1)); !errors.Is(err, ErrBadLength) {
			t.Errorf("negative offset err = %v", err)
		}
	})
	e.Run()
}

func TestLBAMappingContiguous(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, _ := fs.Create("f", int64(4*fs.PageSize()))
	base := f.LBA(0)
	for i := 0; i < 4; i++ {
		if f.LBA(int64(i*fs.PageSize())) != base+ftl.LBA(i) {
			t.Fatalf("page %d not contiguous", i)
		}
	}
}

func TestAllocationReuseAfterRemove(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	free0 := fs.FreePages()
	a, _ := fs.Create("a", int64(10*fs.PageSize()))
	if fs.FreePages() != free0-10 {
		t.Fatalf("free = %d", fs.FreePages())
	}
	fs.Create("b", int64(5*fs.PageSize()))
	startA := a.LBA(0)
	fs.Remove("a")
	if fs.FreePages() != free0-5 {
		t.Fatalf("free after remove = %d", fs.FreePages())
	}
	// First-fit should reuse a's hole.
	c, _ := fs.Create("c", int64(10*fs.PageSize()))
	if c.LBA(0) != startA {
		t.Fatalf("hole not reused: %d vs %d", c.LBA(0), startA)
	}
}

func TestNoSpace(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	if _, err := fs.Create("huge", int64(fs.FreePages()+1)*int64(fs.PageSize())); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestFragmentationCoalescing(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	ps := int64(fs.PageSize())
	fs.Create("a", 4*ps)
	fs.Create("b", 4*ps)
	fs.Create("c", 4*ps)
	fs.Remove("a")
	fs.Remove("c")
	fs.Remove("b") // middle last: all three must coalesce with tail
	f, err := fs.Create("big", 12*ps)
	if err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	if f.LBA(0) != 0 {
		t.Fatalf("expected allocation at 0, got %d", f.LBA(0))
	}
}

func TestRemovedFileRejectsIO(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	f, _ := fs.Create("f", 8192)
	fs.Remove("f")
	e.Go("t", func(p *sim.Proc) {
		if err := f.WriteAt(p, 0, []byte("x")); !errors.Is(err, ErrNotFound) {
			t.Errorf("write err = %v", err)
		}
		if err := f.Sync(p); !errors.Is(err, ErrNotFound) {
			t.Errorf("sync err = %v", err)
		}
	})
	e.Run()
}

func TestListSorted(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	fs.Create("zeta", 4096)
	fs.Create("alpha", 4096)
	got := fs.List()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("list = %v", got)
	}
}

// Property: a write at any offset/length within capacity reads back
// identically and never disturbs a disjoint sentinel region.
func TestPropertyWriteReadIsolation(t *testing.T) {
	prop := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		e := sim.NewEnv()
		fs := newFS(e)
		f, err := fs.Create("f", 64*1024)
		if err != nil {
			return false
		}
		o := int64(off) % (64*1024 - int64(len(data)))
		// Sentinel in the last page.
		sentOff := f.Capacity() - int64(fs.PageSize())
		if o+int64(len(data)) > sentOff {
			return true
		}
		ok := true
		e.Go("t", func(p *sim.Proc) {
			sent := bytes.Repeat([]byte{0xEE}, fs.PageSize())
			f.WriteAt(p, sentOff, sent)
			if err := f.WriteAt(p, o, data); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(data))
			f.ReadAt(p, o, got)
			if !bytes.Equal(got, data) {
				ok = false
				return
			}
			gotSent := make([]byte, fs.PageSize())
			f.ReadAt(p, sentOff, gotSent)
			ok = bytes.Equal(gotSent, sent)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A WriteAt over a partial head page, whole pages and a partial tail
// page reads each partial page and writes it back, and writes the whole
// pages in one command: 2 read commands, 3 write commands. The partial
// pages' bytes outside the range keep what they held.
func TestWriteAtReadModifyWrite(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	ps := int64(fs.PageSize())
	f, _ := fs.Create("f", 8*ps)
	e.Go("t", func(p *sim.Proc) {
		ref := make([]byte, 8*ps)
		for i := range ref {
			ref[i] = byte(i * 3 / 7)
		}
		if err := f.WriteAt(p, 0, ref); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fs.Device().Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		off, n := ps+100, 3*ps // head [ps+100, 2ps), pages 2 and 3, tail [4ps, 4ps+100)
		old := bytes.Clone(ref)
		copy(ref[off:off+n], bytes.Repeat([]byte{0xEE}, int(n)))
		cmds := func() (rd, wr uint64) {
			c := obs.Of(e).Snapshot().Counters
			return c["ULL-SSD.read_cmds"], c["ULL-SSD.write_cmds"]
		}
		rd0, wr0 := cmds()
		if err := f.WriteAt(p, off, ref[off:off+n]); err != nil {
			t.Fatalf("write: %v", err)
		}
		if rd, wr := cmds(); rd-rd0 != 2 || wr-wr0 != 3 {
			t.Fatalf("partial-page WriteAt issued %d reads and %d writes, want 2 and 3", rd-rd0, wr-wr0)
		}
		got := make([]byte, 8*ps)
		if err := f.ReadAt(p, 0, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got[ps:off], old[ps:off]) || !bytes.Equal(got[off+n:5*ps], old[off+n:5*ps]) {
			t.Fatal("WriteAt changed bytes of its partial pages outside its range")
		}
		if !bytes.Equal(got, ref) {
			t.Fatal("read-back differs from the reference image")
		}
	})
	e.Run()
}

// readCmds is the device's read-command count.
func readCmds(t *testing.T, e *sim.Env, profile string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[profile+".read_cmds"]
	if !ok {
		t.Fatalf("no counter %s.read_cmds in the registry", profile)
	}
	return v
}

// ReadAt is one device command whether or not the range is page aligned
// (an aligned range lands in the caller's buffer, any other is copied
// out of a span of its covering pages), and returns the bytes a device
// read of those pages does.
func TestReadAtMatchesReadPagesInto(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	ps := int64(fs.PageSize())
	f, _ := fs.Create("f", 8*ps)
	e.Go("t", func(p *sim.Proc) {
		img := make([]byte, 8*ps)
		for i := range img {
			img[i] = byte(i * 7 / 5)
		}
		if err := f.WriteAt(p, 0, img); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fs.Device().Drain(p); err != nil { // read NAND pages, tag checks included
			t.Fatalf("drain: %v", err)
		}
		for _, c := range []struct{ off, n int64 }{
			{0, ps},            // one aligned page
			{2 * ps, 3 * ps},   // aligned pages
			{100, 200},         // inside a page
			{ps - 10, 20},      // across a boundary
			{ps, ps + 1},       // aligned start, partial tail
			{ps + 1, 2*ps - 1}, // partial head, aligned end
			{7*ps + 5, ps - 5}, // the file's last bytes
		} {
			got := make([]byte, c.n)
			cmds := readCmds(t, e, "ULL-SSD")
			if err := f.ReadAt(p, c.off, got); err != nil {
				t.Fatalf("ReadAt(%d, %d): %v", c.off, c.n, err)
			}
			if n := readCmds(t, e, "ULL-SSD") - cmds; n != 1 {
				t.Fatalf("ReadAt(%d, %d) issued %d read commands, want 1", c.off, c.n, n)
			}
			first := c.off / ps
			pages := make([]byte, ((c.off+c.n+ps-1)/ps-first)*ps)
			if err := fs.Device().ReadPagesInto(p, f.LBA(c.off), pages); err != nil {
				t.Fatalf("ReadPagesInto: %v", err)
			}
			want := pages[c.off-first*ps:][:c.n]
			if !bytes.Equal(got, want) || !bytes.Equal(got, img[c.off:c.off+c.n]) {
				t.Fatalf("ReadAt(%d, %d) differs from ReadPagesInto", c.off, c.n)
			}
		}
	})
	e.Run()
}

// The LBA checker gates ReadAt on either path before any read command
// is issued.
func TestGatedReadAtIssuesNoCommand(t *testing.T) {
	e := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 16
	cfg.Base.Nand.PagesPerBlock = 16
	cfg.Base.FTL.OverProvision = 0.25
	cfg.BABufferBytes = 16 * 4096
	ssd := core.New(e, cfg)
	fs := New(ssd.Device())
	ps := int64(fs.PageSize())
	f, _ := fs.Create("pinned", 4*ps)
	name := ssd.Device().Profile().Name
	e.Go("t", func(p *sim.Proc) {
		if err := ssd.BAPin(p, 0, 0, f.LBA(0), 4); err != nil {
			t.Fatalf("pin: %v", err)
		}
		cmds := readCmds(t, e, name)
		for _, c := range []struct{ off, n int64 }{{0, ps}, {ps, 2 * ps}, {10, 100}} {
			if err := f.ReadAt(p, c.off, make([]byte, c.n)); !errors.Is(err, core.ErrPinnedRange) {
				t.Fatalf("ReadAt(%d, %d) of a pinned range: err = %v, want ErrPinnedRange", c.off, c.n, err)
			}
		}
		if n := readCmds(t, e, name) - cmds; n != 0 {
			t.Fatalf("gated reads issued %d read commands, want 0", n)
		}
	})
	e.Run()
}

// An aligned one-page ReadAt lands in the caller's buffer and makes no
// heap object.
func TestAlignedReadAtDoesNotAllocate(t *testing.T) {
	e := sim.NewEnv()
	fs := newFS(e)
	ps := fs.PageSize()
	f, _ := fs.Create("f", int64(4*ps))
	var allocs float64
	e.Go("t", func(p *sim.Proc) {
		if err := f.WriteAt(p, 0, bytes.Repeat([]byte{0x5A}, 4*ps)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fs.Device().Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		buf := make([]byte, ps)
		allocs = testing.AllocsPerRun(200, func() {
			if err := f.ReadAt(p, int64(ps), buf); err != nil {
				t.Fatalf("read: %v", err)
			}
		})
		if buf[0] != 0x5A || buf[ps-1] != 0x5A {
			t.Fatal("the read did not land in the caller's buffer")
		}
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("%.2f allocations per aligned one-page ReadAt, want 0", allocs)
	}
}
