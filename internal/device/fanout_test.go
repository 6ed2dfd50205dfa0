package device

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// writeDrained writes pages [lba, lba+n), page i filled with fill+i, and
// drains them to NAND so reads go to flash.
func writeDrained(t *testing.T, p *sim.Proc, d *Device, lba ftl.LBA, n int, fill byte) {
	t.Helper()
	ps := d.PageSize()
	data := make([]byte, n*ps)
	for i := 0; i < n; i++ {
		copy(data[i*ps:(i+1)*ps], bytes.Repeat([]byte{fill + byte(i)}, ps))
	}
	if err := d.WritePages(p, lba, data); err != nil {
		t.Fatalf("write [%d,+%d): %v", lba, n, err)
	}
	if err := d.Drain(p); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A multi-page read's fan-out state is pooled (sim.Fan), so the error
// one command hit must not reach the next command that reuses it.
func TestPooledReadForgetsItsError(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		writeDrained(t, p, d, 0, 8, 0x10)
		ppa, ok := d.FTL().PPAOf(2)
		if !ok || !d.Flash().CorruptPage(ppa, 1) {
			t.Fatal("could not corrupt lba 2")
		}
		got := make([]byte, 4*ps)
		if err := d.ReadPagesInto(p, 0, got); !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Fatalf("read over a corrupt page: err = %v, want ErrPageCorrupt", err)
		}
		if err := d.ReadPagesInto(p, 4, got); err != nil {
			t.Fatalf("clean read after a failed one: %v", err)
		}
		for i := 0; i < 4; i++ {
			if got[i*ps] != 0x14+byte(i) {
				t.Fatalf("page %d read %#x, want %#x", 4+i, got[i*ps], 0x14+byte(i))
			}
		}
	})
	e.Run()
}

// Two multi-page reads issued at the same instant on one device run
// their fan-outs concurrently; each must get its own bytes.
func TestConcurrentMultiPageReads(t *testing.T) {
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	setup := e.NewSignal("setup")
	ready := false
	e.Go("setup", func(p *sim.Proc) {
		writeDrained(t, p, d, 0, 4, 0xA0)
		writeDrained(t, p, d, 16, 4, 0xB0)
		ready = true
		setup.Fire()
	})
	var got [2][]byte
	for r, lba := range []ftl.LBA{0, 16} {
		e.GoIdx("reader", r, func(p *sim.Proc, r int) {
			for !ready {
				setup.Wait(p)
			}
			got[r] = make([]byte, 4*ps)
			if err := d.ReadPagesInto(p, lba, got[r]); err != nil {
				t.Errorf("reader %d: %v", r, err)
			}
		})
	}
	e.Run()
	for r, fill := range []byte{0xA0, 0xB0} {
		if len(got[r]) != 4*ps {
			t.Fatalf("reader %d got %d bytes, want %d", r, len(got[r]), 4*ps)
		}
		for i := 0; i < 4; i++ {
			if got[r][i*ps] != fill+byte(i) || got[r][(i+1)*ps-1] != fill+byte(i) {
				t.Fatalf("reader %d page %d holds %#x, want %#x", r, i, got[r][i*ps], fill+byte(i))
			}
		}
	}
}

// In steady state a multi-page read allocates only the buffer ReadPages
// returns, and ReadPagesInto nothing: the fan-out's workers, closures and
// WaitGroup are reused.
func TestMultiPageReadAllocatesOnlyItsBuffer(t *testing.T) {
	const calls = 200
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	var mallocs, mallocsInto uint64
	e.Go("t", func(p *sim.Proc) {
		writeDrained(t, p, d, 0, 4, 1)
		for i := 0; i < 8; i++ { // warm the job and proc pools
			if _, err := d.ReadPages(p, 0, 4); err != nil {
				t.Fatalf("warm-up read: %v", err)
			}
		}
		runtime.GC() // start the collector's own workers outside the window
		measure := func(read func() error) uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < calls; i++ {
				if err := read(); err != nil {
					t.Fatalf("read: %v", err)
				}
			}
			runtime.ReadMemStats(&m1)
			return m1.Mallocs - m0.Mallocs
		}
		mallocs = measure(func() error { _, err := d.ReadPages(p, 0, 4); return err })
		dst := make([]byte, 4*d.PageSize())
		mallocsInto = measure(func() error { return d.ReadPagesInto(p, 0, dst) })
	})
	e.Run()
	// The Go runtime allocates a few objects of its own now and then
	// (the collector's workers, per-P caches) whatever the simulator
	// does; a fan-out that allocated would add hundreds.
	if mallocs > calls+8 {
		t.Fatalf("%d allocations over %d 4-page reads, want <= 1 per read", mallocs, calls)
	}
	if mallocsInto > 8 {
		t.Fatalf("%d allocations over %d 4-page reads into one buffer, want none", mallocsInto, calls)
	}
}

// ReadPages carves its buffers many to a heap object, and each is still
// the caller's alone: it holds its own page, a write into it changes no
// other buffer, and an append to it reallocates instead of running into
// the next one.
func TestReadBuffersAreCarvedAndTheCallers(t *testing.T) {
	const calls = 200
	e := sim.NewEnv()
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	var mallocs uint64
	e.Go("t", func(p *sim.Proc) {
		writeDrained(t, p, d, 0, 4, 0x40)
		got := make([][]byte, calls)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range got {
			var err error
			if got[i], err = d.ReadPages(p, ftl.LBA(i%4), 1); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		for i, b := range got {
			if len(b) != ps || cap(b) != ps {
				t.Fatalf("read %d: len %d cap %d, want both %d", i, len(b), cap(b), ps)
			}
			b[0] = 0xFF
		}
		for _, b := range got {
			_ = append(b, 0xEE)
		}
		for i, b := range got {
			if want := 0x40 + byte(i%4); b[0] != 0xFF || b[1] != want || b[ps-1] != want {
				t.Fatalf("read %d holds %#x %#x … %#x, want 0xff %#x … %#x", i, b[0], b[1], b[ps-1], want, want)
			}
		}
	})
	e.Run()
	if mallocs > calls/4 {
		t.Fatalf("%d allocations over %d one-page reads, want a fraction of one per read", mallocs, calls)
	}
}
