package obs_test

import (
	"bytes"
	"testing"

	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// TestSamplerWindows drives a hand-built event schedule through a
// sampler and checks the exact window contents: a window's point
// reflects precisely the events that completed inside it, and the
// run-end flush emits a final partial window.
func TestSamplerWindows(t *testing.T) {
	const w = int64(obs.SampleInterval)
	env := sim.NewEnv()
	set := obs.Of(env)
	sm := set.StartSampler()
	r := set.Registry()
	c := r.Counter("ops")
	r.Gauge("depth").Set(1)
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(sim.Duration(w / 10))
		c.Inc() // 0.1 windows in: window 0
		p.Sleep(sim.Duration(w / 2))
		c.Inc() // 0.6: window 0
		p.Sleep(sim.Duration(w / 2))
		c.Inc() // 1.1: window 1
		r.Histo("lat").Observe(sim.Duration(42))
		p.Sleep(sim.Duration(w * 14 / 10))
		c.Inc() // 2.5: window 2 (partial: run ends here)
	})
	env.Run()

	tl := sm.Timeline()
	if len(tl.Points) != 3 {
		t.Fatalf("points = %d, want 3: %+v", len(tl.Points), tl.Points)
	}
	want := []struct {
		window, timeNs, spanNs int64
		delta                  uint64
		partial                bool
	}{
		{0, w, w, 2, false},
		{1, 2 * w, w, 1, false},
		{2, 5 * w / 2, w / 2, 1, true},
	}
	for i, w := range want {
		pt := tl.Points[i]
		if pt.Window != w.window || pt.TimeNs != w.timeNs || pt.SpanNs != w.spanNs {
			t.Fatalf("point %d = window %d time %d span %d, want %d/%d/%d",
				i, pt.Window, pt.TimeNs, pt.SpanNs, w.window, w.timeNs, w.spanNs)
		}
		if pt.Counters["ops"] != w.delta {
			t.Fatalf("point %d ops delta = %d, want %d", i, pt.Counters["ops"], w.delta)
		}
		if pt.Partial != w.partial {
			t.Fatalf("point %d partial = %v, want %v", i, pt.Partial, w.partial)
		}
		if pt.Gauges["depth"] != 1 {
			t.Fatalf("point %d gauge depth = %v, want 1", i, pt.Gauges["depth"])
		}
	}
	// The observation 1.1 windows in lands in window 1 and nowhere else.
	if h, ok := tl.Points[1].Histos["lat"]; !ok || h.N != 1 {
		t.Fatalf("window 1 lat histo = %+v, want n=1", tl.Points[1].Histos)
	}
	if _, ok := tl.Points[0].Histos["lat"]; ok {
		t.Fatal("window 0 carries a histo window before any observation")
	}
	if _, ok := tl.Points[2].Histos["lat"]; ok {
		t.Fatal("window 2 carries a histo window with no new samples")
	}
	if tl.DroppedPoints != 0 {
		t.Fatalf("dropped = %d, want 0", tl.DroppedPoints)
	}
}

// TestSamplerRingDrop overflows the point ring and checks that the
// newest windows survive and the drop count is reported.
func TestSamplerRingDrop(t *testing.T) {
	env := sim.NewEnv()
	set := obs.Of(env)
	sm := set.StartSampler()
	c := set.Registry().Counter("ops")
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < obs.MaxPoints+100; i++ {
			p.Sleep(obs.SampleInterval)
			c.Inc()
		}
	})
	env.Run()

	tl := sm.Timeline()
	if len(tl.Points) != obs.MaxPoints {
		t.Fatalf("ring kept %d points, want %d", len(tl.Points), obs.MaxPoints)
	}
	if tl.DroppedPoints == 0 {
		t.Fatal("ring overflow reported no drops")
	}
	for i := 1; i < len(tl.Points); i++ {
		if tl.Points[i].Window <= tl.Points[i-1].Window {
			t.Fatalf("points out of order: %d then %d",
				tl.Points[i-1].Window, tl.Points[i].Window)
		}
	}
	// The newest window must be the final one.
	last := tl.Points[len(tl.Points)-1]
	if !last.Partial && last.TimeNs != int64(env.Now()) {
		t.Fatalf("last point time %d, want run end %d", last.TimeNs, int64(env.Now()))
	}
}

// sampledDeviceRun drives the standard small block workload with
// sampling on and returns the timeline JSON bytes.
func sampledDeviceRun(t *testing.T) []byte {
	t.Helper()
	env := sim.NewEnv()
	sm := obs.Of(env).StartSampler()
	dev := device.New(env, device.ULLSSD())
	env.Go("w", func(p *sim.Proc) {
		ps := dev.PageSize()
		page := make([]byte, ps)
		for i := 0; i < 16; i++ {
			page[0] = byte(i)
			if err := dev.WritePages(p, ftl.LBA(i), page); err != nil {
				t.Errorf("write: %v", err)
			}
			p.Sleep(obs.SampleInterval / 4) // spread the run over several windows
		}
		if err := dev.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
		}
		for i := 0; i < 16; i++ {
			if err := dev.ReadPagesInto(p, ftl.LBA(i), page); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	env.Run()
	var js bytes.Buffer
	if err := sm.Timeline().WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return js.Bytes()
}

// TestTimelineDeterministic checks that identical runs export
// byte-identical timeline JSON.
func TestTimelineDeterministic(t *testing.T) {
	j1, j2 := sampledDeviceRun(t), sampledDeviceRun(t)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("identical runs produced different timeline JSON:\n%s\n---\n%s", j1, j2)
	}
	if len(j1) == 0 || !bytes.Contains(j1, []byte(obs.TimelineSchema)) {
		t.Fatalf("timeline JSON carries no schema: %s", j1)
	}
}

// mergedRun builds two environments with overlapping metrics and folds
// them through a collector, optionally reversing collection order.
func mergedRun(t *testing.T, reversed bool) []byte {
	t.Helper()
	c := obs.NewCollector(false)
	c.EnableSampling()
	build := func(inc uint64, gauge float64) *sim.Env {
		env := sim.NewEnv()
		set := obs.Of(env)
		ctr := set.Registry().Counter("shared.ops")
		set.Registry().Gauge("shared.depth").Set(gauge)
		env.Go("w", func(p *sim.Proc) {
			p.Sleep(obs.SampleInterval / 2)
			ctr.Add(inc)
			p.Sleep(obs.SampleInterval)
			ctr.Add(inc)
		})
		return env
	}
	a, b := build(1, 10), build(2, 20)
	if reversed {
		c.Collect(obs.Of(b))
		c.Collect(obs.Of(a))
	} else {
		c.Collect(obs.Of(a))
		c.Collect(obs.Of(b))
	}
	a.Run()
	b.Run()
	var buf bytes.Buffer
	if err := c.WriteTimelineJSON(&buf); err != nil {
		t.Fatalf("WriteTimelineJSON: %v", err)
	}
	return buf.Bytes()
}

// TestCollectorMergedTimeline checks the cross-environment fold:
// counter deltas add per window, both environments are counted, and the
// merged bytes are independent of collection order (the parallel
// runner's schedule).
func TestCollectorMergedTimeline(t *testing.T) {
	fwd := mergedRun(t, false)
	rev := mergedRun(t, true)
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("merge depends on collection order:\n%s\n---\n%s", fwd, rev)
	}

	c := obs.NewCollector(false)
	c.EnableSampling()
	env := sim.NewEnv()
	set := obs.Of(env)
	ctr := set.Registry().Counter("shared.ops")
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(obs.SampleInterval / 2)
		ctr.Add(3)
		p.Sleep(obs.SampleInterval)
		ctr.Add(3)
	})
	c.Collect(set)
	env.Run()
	tl := c.MergedTimeline()
	if tl.Envs != 1 || len(tl.Points) == 0 {
		t.Fatalf("merged timeline envs=%d points=%d", tl.Envs, len(tl.Points))
	}
	var total uint64
	for _, pt := range tl.Points {
		total += pt.Counters["shared.ops"]
	}
	if total != 6 {
		t.Fatalf("summed deltas = %d, want 6", total)
	}
}

// TestSamplerOffNoAllocOverhead asserts the satellite guarantee: with
// the sampler disabled, the observability layer adds zero steady-state
// allocations to a run — an environment with its Set attached allocates
// exactly as much as the same workload allocated on its previous run.
func TestSamplerOffNoAllocOverhead(t *testing.T) {
	run := func(withSet bool) float64 {
		return testing.AllocsPerRun(10, func() {
			env := sim.NewEnv()
			var c *obs.Counter
			if withSet {
				c = obs.Of(env).Registry().Counter("ops")
			}
			env.Go("w", func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					p.Sleep(10)
					c.Inc()
				}
			})
			env.Run()
		})
	}
	base := run(false)
	withSet := run(true)
	// The with-set run performs a constant number of extra allocations
	// (the Set, the registry, one counter); what must NOT appear is any
	// per-event cost from the disabled sampler tick check.
	const setupAllowance = 16
	if withSet > base+setupAllowance {
		t.Fatalf("sampler-off run allocates %.0f objects vs %.0f baseline — per-event overhead leaked in", withSet, base)
	}
}
