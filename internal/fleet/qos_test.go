package fleet

import (
	"fmt"
	"testing"

	"twobssd/internal/sim"
)

// qosRig is one device whose slot manager arbitrates the named streams'
// logs, outside a fleet: the tests drive the streams' operations.
func qosRig(t *testing.T, slots int, streams ...string) (*sim.Group, *node, []*logHandle) {
	t.Helper()
	g := sim.NewGroup()
	fr := &fleetRT{cfg: &Config{QoS: QoSConfig{Slots: slots, BurstOps: 4}}}
	n := newNode(g, fr, DefaultDeviceConfig(), 0)
	var hs []*logHandle
	for _, s := range streams {
		h, err := newLogHandle(n.slots, n.ssd, n.fs, "wal-"+s, s, fr.cfg.logBytes())
		if err != nil {
			g.Shutdown()
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return g, n, hs
}

// runToEnd runs g and returns the deadlock it stopped on ("" when every
// process ran to its end).
func runToEnd(g *sim.Group) (stuck string) {
	defer func() {
		if r := recover(); r != nil {
			stuck = fmt.Sprint(r)
		}
	}()
	g.Run()
	return ""
}

// A holder that appends once, below its burst quota, and stops is idle:
// the other stream's append evicts it and completes within one flush
// (the holder's page) plus one pin (its own page) of what an append on a
// free slot takes.
func TestIdleHolderYieldsToWaiter(t *testing.T) {
	g, n, hs := qosRig(t, 1, "a", "b")
	defer g.Shutdown()
	a, b := hs[0], hs[1]
	rec := appendPayload(nil, "r", 0, 0, 128)
	var free, evicting, flush sim.Duration
	bDone := false
	n.env.Go("a", func(p *sim.Proc) {
		t0 := n.env.Now()
		if err := a.append(p, rec); err != nil {
			t.Errorf("a: %v", err)
		}
		free = sim.Duration(n.env.Now() - t0)
	})
	n.env.GoAt(sim.Time(sim.Millisecond), "b", func(p *sim.Proc) {
		t0 := n.env.Now()
		if err := b.append(p, rec); err != nil {
			t.Errorf("b: %v", err)
		}
		evicting = sim.Duration(n.env.Now() - t0)
		t1 := n.env.Now()
		if err := b.release(p); err != nil {
			t.Errorf("b release: %v", err)
		}
		flush = sim.Duration(n.env.Now() - t1)
		bDone = true
	})
	if stuck := runToEnd(g); stuck != "" || !bDone {
		t.Fatalf("b's append never completed behind an idle holder: %s", stuck)
	}
	t.Logf("b's append %v; an append on a free slot %v; one flush %v", evicting, free, flush)
	if evicting > free+flush {
		t.Fatalf("b's append took %v, want <= %v (an append on a free slot) + %v (one flush)", evicting, free, flush)
	}
	if got := a.cEvict.Value(); got != 1 {
		t.Fatalf("a was evicted %d times, want 1", got)
	}
}

// Two streams that start waiting at one instant, while every holder is
// idle, both get a slot: with a slot per waiter each evicts its own
// idle holder, and with one slot the waiter passed over keeps its claim
// and the stream that took the slot yields it when its append ends.
func TestIdleHoldersYieldToTwoWaiters(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d slots", slots), func(t *testing.T) {
			names := []string{"w1", "w2"}
			for i := range slots {
				names = append(names, fmt.Sprintf("h%d", i))
			}
			g, n, hs := qosRig(t, slots, names...)
			defer g.Shutdown()
			rec := appendPayload(nil, "r", 0, 0, 128)
			for _, h := range hs[2:] {
				n.env.Go("hold-"+h.stream, func(p *sim.Proc) {
					if err := h.append(p, rec); err != nil {
						t.Errorf("%s: %v", h.stream, err)
					}
				})
			}
			done := 0
			for _, w := range hs[:2] {
				n.env.GoAt(sim.Time(sim.Millisecond), "wait-"+w.stream, func(p *sim.Proc) {
					if err := w.append(p, rec); err != nil {
						t.Errorf("%s: %v", w.stream, err)
					}
					done++
				})
			}
			if stuck := runToEnd(g); stuck != "" || done != 2 {
				t.Fatalf("%d of 2 waiters got a slot: %s", done, stuck)
			}
			if err := n.slots.audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
