package bench

import (
	"errors"
	"testing"

	"twobssd/internal/sim"
)

func TestPagesFor(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {-3, 1},
	}
	for _, c := range cases {
		if got := pagesFor(c.bytes, 4096); got != c.want {
			t.Errorf("pagesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestMBps(t *testing.T) {
	if got := MBps(1000000, sim.Second); got != 1.0 {
		t.Fatalf("MBps = %v", got)
	}
	if MBps(100, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}

func TestBlockLatenciesMatchCalibration(t *testing.T) {
	if got := blockLatency(ULL, 4096, 5, false); got < 12*sim.Microsecond || got > 15*sim.Microsecond {
		t.Errorf("ULL 4KB read = %v", got)
	}
	if got := blockLatency(DC, 4096, 5, true); got < 15*sim.Microsecond || got > 19*sim.Microsecond {
		t.Errorf("DC 4KB write = %v", got)
	}
	// Sub-page requests cost a full page.
	if a, b := blockLatency(ULL, 64, 3, false), blockLatency(ULL, 4096, 3, false); a != b {
		t.Errorf("sub-page read %v != page read %v", a, b)
	}
}

func TestMMIOLatencies(t *testing.T) {
	if got := mmioWrite(SSD2B, 8, 5, false); got != 630 {
		t.Errorf("8B MMIO write = %v, want 630ns", got)
	}
	plain := mmioWrite(SSD2B, 4096, 5, false)
	persistent := mmioWrite(SSD2B, 4096, 5, true)
	if persistent <= plain {
		t.Error("persistent write should cost more")
	}
	mmio := mmioRead(SSD2B, 4096, 3, false)
	dma := mmioRead(SSD2B, 4096, 3, true)
	if dma >= mmio {
		t.Errorf("DMA (%v) should beat MMIO (%v) at 4KB", dma, mmio)
	}
}

func TestBandwidthSweeps(t *testing.T) {
	small := blockBandwidth(ULL, 4<<10, false)
	big := blockBandwidth(ULL, 1<<20, false)
	if big <= small {
		t.Errorf("read bandwidth should grow: %v -> %v", small, big)
	}
	w := blockBandwidth(DC, 1<<20, true)
	if w < 500 || w > 2500 {
		t.Errorf("DC 1MB write bandwidth = %.0f MB/s", w)
	}
	ir := internalBandwidth(SSD2B, 1<<20, false)
	iw := internalBandwidth(SSD2B, 1<<20, true)
	if ir < 1000 || ir > 3000 {
		t.Errorf("internal read bandwidth = %.0f MB/s", ir)
	}
	if iw < 1000 || iw > 3000 {
		t.Errorf("internal write bandwidth = %.0f MB/s", iw)
	}
}

func TestInternalBandwidthChunksThroughBuffer(t *testing.T) {
	// A request larger than the BA-buffer must still complete (chunked
	// pin/flush) and report sane bandwidth.
	got := internalBandwidth(SSD2B, 12<<20, true) // 12MB > 8MB buffer
	if got < 1000 || got > 3000 {
		t.Fatalf("chunked internal bandwidth = %.0f MB/s", got)
	}
}

// A closed loop of 4 clients splits its ops as evenly as they allow,
// runs them concurrently, and ends its window at the last ack, not at
// the setup's start or the environment's idle.
func TestClosedLoopSplitsAndOverlaps(t *testing.T) {
	e := sim.NewEnv()
	defer e.Shutdown()
	per := make([]int, 4)
	lp := Closed{Env: e, Clients: 4, Ops: 10,
		Setup: func(p *sim.Proc) error {
			p.Sleep(sim.Millisecond)                                  // not in the window
			e.Go("daemon", func(d *sim.Proc) { d.Sleep(sim.Second) }) // nor is this
			return nil
		},
		Op: func(p *sim.Proc, c, _ int) error {
			per[c]++
			p.Sleep(10 * sim.Microsecond)
			return nil
		}}.must()
	if want := []int{3, 3, 2, 2}; per[0] != want[0] || per[1] != want[1] || per[2] != want[2] || per[3] != want[3] {
		t.Fatalf("ops per client = %v, want %v", per, want)
	}
	if lp.Lat.N() != 10 || lp.Lat.Mean() != 10*sim.Microsecond {
		t.Fatalf("histogram: n=%d mean=%v", lp.Lat.N(), lp.Lat.Mean())
	}
	// Three rounds of 10 µs: 10 ops in 30 µs.
	if got, want := lp.Rate(), 10/(30*sim.Microsecond).Seconds(); got != want {
		t.Fatalf("rate = %.0f/s, want %.0f/s", got, want)
	}
}

// The first failure stops every client: none issues an op after it (an
// op in flight still completes), and Run returns it.
func TestClosedLoopStopsAtFirstError(t *testing.T) {
	e := sim.NewEnv()
	defer e.Shutdown()
	boom := errors.New("boom")
	issued := 0
	lp, err := Closed{Env: e, Clients: 2, Ops: 100,
		Op: func(p *sim.Proc, c, i int) error {
			issued++
			p.Sleep(sim.Microsecond)
			if c == 0 && i == 2 { // at 3 µs, as client 1's third op returns
				return boom
			}
			return nil
		}}.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if issued != 6 || lp.Lat.N() != 5 {
		t.Fatalf("issued %d ops, acked %d; want 6 and 5", issued, lp.Lat.N())
	}
	if _, err := (Closed{Env: e, Setup: func(*sim.Proc) error { return boom }, Ops: 1,
		Op: func(*sim.Proc, int, int) error { t.Fatal("an op ran after the setup failed"); return nil }}).Run(); !errors.Is(err, boom) {
		t.Fatalf("setup failure: err = %v", err)
	}
}

// The qd table's QD=1 cell is one 4 KB read at a time, so it is the
// inverse of Fig 7a's 4 KB read latency: a rate that counted the
// table's preconditioning write would read low.
func TestQueueDepthOneIsFig7aLatency(t *testing.T) {
	r := runner(Quick)
	qd, fig7a := QueueDepth(r), Fig7a(r)
	for _, dev := range []string{"DC-SSD", "ULL-SSD"} {
		kiops, lat := get(t, qd, "1", dev), get(t, fig7a, "4KB", dev)
		if prod := kiops * 1e3 * lat * 1e-6; prod < 0.995 || prod > 1.005 {
			t.Errorf("%s: QD=1 %.2f kIOPS × 4KB read %.2f us = %.4f, want 1 ± 0.5 %%", dev, kiops, lat, prod)
		}
	}
}
