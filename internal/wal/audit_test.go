package wal

import (
	"math/rand"
	"strings"
	"testing"

	"twobssd/internal/sim"
)

// The log audits clean whenever a proc can run: an auditor waking every
// 100 ns beside six BA appenders on a ring sees records storing — out
// of LSN order, so several at once — and never a broken frontier, and
// audits without allocating while they are. The log audits clean at
// the end too.
func TestAuditHoldsUnderConcurrentAppenders(t *testing.T) {
	r := newRig()
	defer r.env.Shutdown()
	cfg := segCfg(r, BA)
	cfg.Ring = 16
	sl, err := Open(r.env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appenders, most := 6, 0
	for c := 0; c < 6; c++ {
		r.env.GoIdx("append", c, func(p *sim.Proc, c int) {
			defer func() { appenders-- }()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 6; i++ {
				if _, err := appendCommit(p, sl, mixedPayload(rng, c, i)); err != nil {
					t.Errorf("appender %d op %d: %v", c, i, err)
					return
				}
			}
		})
	}
	r.env.Go("audit", func(p *sim.Proc) {
		for appenders > 0 {
			if err := sl.Audit(); err != nil {
				t.Fatalf("t=%v: %v", r.env.Now(), err)
			}
			if most = max(most, len(sl.storing)); len(sl.storing) > 1 {
				if allocs := testing.AllocsPerRun(100, func() { _ = sl.Audit() }); allocs != 0 {
					t.Fatalf("Audit allocated %.1f times per run, want 0", allocs)
				}
			}
			p.Sleep(100 * sim.Nanosecond)
		}
	})
	r.env.Run()
	if most < 2 {
		t.Fatalf("at most %d records storing at once: the run exercised no overlap", most)
	}
	if err := sl.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Each planted break of the log's frontiers fails the audit.
func TestAuditFindsPlantedLogBugs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(l *Log)
		want  string
	}{
		{"durable past append", func(l *Log) { l.durableOff = l.appendOff + 1 }, "past the append frontier"},
		{"out of order", func(l *Log) { l.durableOff, l.storing = 0, append(l.storing, 20, 10) }, "lists 10 after 20"},
		{"listed twice", func(l *Log) { l.durableOff, l.storing = 0, append(l.storing, 10, 10) }, "lists 10 after 10"},
		{"past append", func(l *Log) { l.storing = append(l.storing, l.appendOff) }, "outside"},
		{"stored, durable and still listed", func(l *Log) { l.storing = append(l.storing, l.durableOff-1) }, "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			defer r.env.Shutdown()
			sl := openSeg(t, r, BA)
			r.env.Go("t", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					if _, err := appendCommit(p, sl, strings.Repeat("a", 100)); err != nil {
						t.Fatal(err)
					}
				}
			})
			r.env.Run()
			if err := sl.Audit(); err != nil {
				t.Fatalf("before the plant: %v", err)
			}
			tc.plant(sl)
			if err := sl.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit = %v, want %q", err, tc.want)
			}
		})
	}
}
