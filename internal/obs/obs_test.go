package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

func TestRegistryIdentity(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter(x) twice returned different instances")
	}
	a.Add(2)
	b.Inc()
	if got := r.Counter("x").Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	if r.Histo("h") != r.Histo("h") {
		t.Fatal("Histo(h) twice returned different instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge(g) twice returned different instances")
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *obs.Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *obs.Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
}

func TestMergeInto(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Counter("n").Add(2)
	b.Counter("n").Add(3)
	a.Histo("h").Observe(100)
	b.Histo("h").Observe(300)
	a.GaugeFunc("f", func() float64 { return 7 })
	a.MergeInto(b)
	if got := b.Counter("n").Value(); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	if got := b.Histo("h").N(); got != 2 {
		t.Fatalf("merged histo n = %d, want 2", got)
	}
	snap := b.SnapshotAt(0)
	if snap.Gauges["f"] != 7 {
		t.Fatalf("merged gauge fn = %v, want 7", snap.Gauges["f"])
	}
}

// deviceRun drives a small deterministic block workload and returns the
// environment's metrics snapshot as JSON bytes.
func deviceRun(t *testing.T) []byte {
	t.Helper()
	env := sim.NewEnv()
	dev := device.New(env, device.ULLSSD())
	env.Go("w", func(p *sim.Proc) {
		ps := dev.PageSize()
		page := make([]byte, ps)
		for i := 0; i < 16; i++ {
			page[0] = byte(i)
			if err := dev.WritePages(p, ftl.LBA(i), page); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if err := dev.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
		}
		for i := 0; i < 16; i++ {
			if err := dev.ReadPagesInto(p, ftl.LBA(i), page); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		if err := dev.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	env.Run()
	var buf bytes.Buffer
	if err := obs.Of(env).Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotDeterministic(t *testing.T) {
	a := deviceRun(t)
	b := deviceRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different snapshots:\n%s\n---\n%s", a, b)
	}
	// The snapshot must carry real data, not an empty report.
	var snap obs.Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["ULL-SSD.write_cmds"] != 16 {
		t.Fatalf("write_cmds = %d, want 16", snap.Counters["ULL-SSD.write_cmds"])
	}
	if snap.Histograms["nand.program_ns"].N == 0 {
		t.Fatal("nand.program_ns histogram is empty")
	}
	if snap.VirtualTimeNs <= 0 {
		t.Fatal("snapshot carries no virtual time")
	}
}

// traceFile mirrors the Chrome trace-event JSON for assertions.
type traceFile struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		PID  int                    `json:"pid"`
		TID  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

func TestSpanNestingAndExport(t *testing.T) {
	env := sim.NewEnv()
	tr := obs.Of(env).EnableTracing()
	env.Go("worker", func(p *sim.Proc) {
		outer := tr.BeginProc(p, "test", "outer")
		p.Sleep(100)
		inner := tr.Begin("sub", "test", "inner")
		p.Sleep(50)
		inner.End()
		tr.Instant("sub", "test", "mark")
		p.Sleep(25)
		outer.End()
	})
	env.Run()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}

	find := func(name string) (ts, dur float64, ok bool) {
		for _, ev := range tf.TraceEvents {
			if ev.Name == name && ev.Ph == "X" {
				return ev.TS, ev.Dur, true
			}
		}
		return 0, 0, false
	}
	ots, odur, ok := find("outer")
	if !ok {
		t.Fatal("outer span missing from export")
	}
	its, idur, ok := find("inner")
	if !ok {
		t.Fatal("inner span missing from export")
	}
	if odur != float64(175)/1e3 || idur != float64(50)/1e3 {
		t.Fatalf("span durations outer=%vus inner=%vus, want 0.175/0.050", odur, idur)
	}
	if its < ots || its+idur > ots+odur {
		t.Fatalf("inner [%v,%v) not nested in outer [%v,%v)", its, its+idur, ots, ots+odur)
	}

	// Spans close in nesting order: inner's event precedes outer's.
	var order []string
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			order = append(order, ev.Name)
		}
	}
	want := []string{"inner", "mark", "outer"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("event order = %v, want %v", order, want)
	}

	// Track metadata: the proc track and the explicit track are named.
	named := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			named[ev.Args["name"].(string)] = true
		}
	}
	if !named["worker"] || !named["sub"] {
		t.Fatalf("thread_name metadata missing tracks: %v", named)
	}
}

func TestEventCap(t *testing.T) {
	env := sim.NewEnv()
	tr := obs.Of(env).EnableTracing()
	tr.SetMaxEvents(4)
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			tr.Instant("t", "c", "e")
		}
	})
	env.Run()
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *obs.Tracer // the disabled tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("track", "cat", "name")
		sp.End()
		tr.Instant("track", "cat", "name")
		tr.Count("track", "name", 1)
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkDisabledTracer measures the disabled fast path the device
// hot path takes on every operation when -trace is not given.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("track", "cat", "name")
		sp.End()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := obs.NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
