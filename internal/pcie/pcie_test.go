package pcie

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// counter reads a registry series by name and fails the test when no
// component registered it: Registry.Counter would create the name and
// read 0, so a misspelled name would pass an "== 0" check vacuously.
func counter(t testing.TB, e *sim.Env, name string) uint64 {
	t.Helper()
	v, ok := obs.Of(e).Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q in the registry", name)
	}
	return v
}

func newWin(e *sim.Env, size int) *Window {
	return NewWindow(e, DefaultConfig(), make([]byte, size))
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.WCBurstBytes = 0
	if bad.Validate() == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestWriteLatencyCalibration(t *testing.T) {
	// Paper Fig 7b: 8 B write = 630 ns, 4 KB write ≈ 2 µs.
	measure := func(n int) sim.Duration {
		e := sim.NewEnv()
		w := newWin(e, 8<<20)
		var took sim.Duration
		e.Go("t", func(p *sim.Proc) {
			start := e.Now()
			if err := w.Write(p, 0, make([]byte, n)); err != nil {
				t.Fatalf("write: %v", err)
			}
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return took
	}
	if got := measure(8); got != 630 {
		t.Errorf("8B write = %v, want 630ns", got)
	}
	got4k := measure(4096)
	if got4k < 1900 || got4k > 2100 {
		t.Errorf("4KB write = %v, want ~2us", got4k)
	}
}

func TestReadLatencyCalibration(t *testing.T) {
	// Paper Fig 7a: 4 KB MMIO read ≈ 150 µs; sub-256 B reads land in
	// the couple-of-µs range.
	measure := func(n int) sim.Duration {
		e := sim.NewEnv()
		w := newWin(e, 8<<20)
		var took sim.Duration
		e.Go("t", func(p *sim.Proc) {
			start := e.Now()
			if err := w.Read(p, 0, make([]byte, n)); err != nil {
				t.Fatalf("read: %v", err)
			}
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return took
	}
	got4k := measure(4096)
	if got4k < 140*sim.Microsecond || got4k > 160*sim.Microsecond {
		t.Errorf("4KB read = %v, want ~150us", got4k)
	}
	got8 := measure(8)
	if got8 < 2*sim.Microsecond || got8 > 3*sim.Microsecond {
		t.Errorf("8B read = %v, want ~2.2us", got8)
	}
}

func TestSyncOverheadCalibration(t *testing.T) {
	// Paper: persistent MMIO ≈ +15 % at small sizes, ≈ +47 % at 4 KB.
	ratio := func(n int) float64 {
		e := sim.NewEnv()
		w := newWin(e, 8<<20)
		var wr, sync sim.Duration
		e.Go("t", func(p *sim.Proc) {
			start := e.Now()
			w.Write(p, 0, make([]byte, n))
			wr = sim.Duration(e.Now() - start)
			start = e.Now()
			w.Sync(p, 0, n)
			sync = sim.Duration(e.Now() - start)
		})
		e.Run()
		return float64(wr+sync) / float64(wr)
	}
	if r := ratio(8); r < 1.10 || r > 1.20 {
		t.Errorf("8B persistent/plain = %.2f, want ~1.15", r)
	}
	if r := ratio(4096); r < 1.40 || r > 1.55 {
		t.Errorf("4KB persistent/plain = %.2f, want ~1.47", r)
	}
}

func TestSub1usPersistentWriteUpTo1KB(t *testing.T) {
	// The paper's headline: "sub-one µs latency is possible for a write
	// of 1 KB or less in size" (plain MMIO write; Fig 7b).
	e := sim.NewEnv()
	w := newWin(e, 8<<20)
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		w.Write(p, 0, make([]byte, 1024))
		took := sim.Duration(e.Now() - start)
		if took >= sim.Microsecond {
			t.Errorf("1KB MMIO write = %v, want < 1us", took)
		}
	})
	e.Run()
}

func TestWriteSyncReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 4096)
	data := []byte("hello 2B-SSD")
	e.Go("t", func(p *sim.Proc) {
		if err := w.Write(p, 100, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Sync(p, 100, len(data)); err != nil {
			t.Fatalf("sync: %v", err)
		}
		got := make([]byte, len(data))
		if err := w.Read(p, 100, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q", got)
		}
	})
	e.Run()
}

func TestReadSeesOwnUnsyncedWrites(t *testing.T) {
	// x86: a load from WC memory drains the WC buffers first.
	e := sim.NewEnv()
	w := newWin(e, 4096)
	e.Go("t", func(p *sim.Proc) {
		w.Write(p, 0, []byte{1, 2, 3})
		got := make([]byte, 3)
		w.Read(p, 0, got)
		if got[0] != 1 || got[2] != 3 {
			t.Errorf("read after write got %v", got)
		}
	})
	e.Run()
}

func TestUnsyncedWritesLostOnPowerFailure(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 4096)
	e.Go("t", func(p *sim.Proc) {
		w.Write(p, 0, []byte{0xAA, 0xBB})
		// No sync: power fails.
		if lost := w.DropPending(); lost == 0 {
			t.Error("expected pending bursts to be lost")
		}
		if w.mem.(flat)[0] != 0 {
			t.Error("unsynced data reached device memory")
		}
	})
	e.Run()
}

func TestSyncedWritesSurvivePowerFailure(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 4096)
	e.Go("t", func(p *sim.Proc) {
		w.Write(p, 0, []byte{0xAA, 0xBB})
		w.Sync(p, 0, 2)
		w.DropPending()
		if w.mem.(flat)[0] != 0xAA || w.mem.(flat)[1] != 0xBB {
			t.Error("synced data lost")
		}
	})
	e.Run()
}

func TestWCOverflowEvictsOldestToDevice(t *testing.T) {
	// Writing more bursts than the WC pool holds force-evicts the
	// oldest to the device; those survive power failure even unsynced.
	e := sim.NewEnv()
	cfg := DefaultConfig() // 10 bursts of 64 B
	w := NewWindow(e, cfg, make([]byte, 4096))
	e.Go("t", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xCC}, 64*15) // 15 bursts
		w.Write(p, 0, data)
		if w.PendingBursts() != cfg.WCBufferBursts {
			t.Errorf("pending = %d, want %d", w.PendingBursts(), cfg.WCBufferBursts)
		}
		w.DropPending()
		// First 5 bursts (evicted) must be on the device; the rest not.
		if w.mem.(flat)[0] != 0xCC {
			t.Error("evicted burst missing from device memory")
		}
		if w.mem.(flat)[64*14] == 0xCC {
			t.Error("staged burst reached device without sync")
		}
	})
	e.Run()
	if counter(t, e, "pcie.wc_evictions") == 0 {
		t.Error("no evictions counted")
	}
}

func TestOutOfWindowAccess(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 64)
	e.Go("t", func(p *sim.Proc) {
		if err := w.Write(p, 60, make([]byte, 8)); !errors.Is(err, ErrOutOfWindow) {
			t.Errorf("write err = %v", err)
		}
		if err := w.Read(p, -1, make([]byte, 4)); !errors.Is(err, ErrOutOfWindow) {
			t.Errorf("read err = %v", err)
		}
		if err := w.Sync(p, 0, 100); !errors.Is(err, ErrOutOfWindow) {
			t.Errorf("sync err = %v", err)
		}
	})
	e.Run()
}

func TestZeroLengthWriteIsFree(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 64)
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		if err := w.Write(p, 0, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		if e.Now() != start {
			t.Error("zero-length write took time")
		}
	})
	e.Run()
}

func TestStatsCounters(t *testing.T) {
	e := sim.NewEnv()
	w := newWin(e, 4096)
	e.Go("t", func(p *sim.Proc) {
		w.Write(p, 0, make([]byte, 100))
		w.Sync(p, 0, 100)
		w.Read(p, 0, make([]byte, 10))
	})
	e.Run()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"pcie.mmio_writes", 1}, {"pcie.syncs", 1}, {"pcie.mmio_reads", 1},
		{"pcie.bytes_written", 100}, {"pcie.bytes_read", 10}, {"pcie.write_verify_reads", 1},
	} {
		if got := counter(t, e, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// Property: write+sync makes the device view equal to the written data
// for any offset/payload within the window.
func TestPropertyWriteSyncCommits(t *testing.T) {
	prop := func(off uint16, payload []byte) bool {
		const size = 1 << 16
		o := int(off)
		if len(payload) == 0 || o+len(payload) > size {
			return true
		}
		e := sim.NewEnv()
		w := newWin(e, size)
		ok := true
		e.Go("t", func(p *sim.Proc) {
			if err := w.Write(p, o, payload); err != nil {
				ok = false
				return
			}
			if err := w.Sync(p, o, len(payload)); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(w.mem.(flat)[o:o+len(payload)], payload)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: monotonicity — a larger write never takes less time.
func TestPropertyWriteLatencyMonotone(t *testing.T) {
	lat := func(n int) sim.Duration {
		e := sim.NewEnv()
		w := newWin(e, 1<<20)
		var took sim.Duration
		e.Go("t", func(p *sim.Proc) {
			start := e.Now()
			w.Write(p, 0, make([]byte, n))
			took = sim.Duration(e.Now() - start)
		})
		e.Run()
		return took
	}
	prop := func(a, b uint16) bool {
		na, nb := int(a)%65536+1, int(b)%65536+1
		if na > nb {
			na, nb = nb, na
		}
		return lat(na) <= lat(nb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
