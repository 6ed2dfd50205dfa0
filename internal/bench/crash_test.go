package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// A short sweep over every workload must hold the durability contract.
func TestCrashCampaignsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCrash(runner(Quick), &buf, nil, 6); err != nil {
		t.Fatalf("RunCrash: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, name := range CrashWorkloads() {
		if !strings.Contains(out, "campaign "+name+":") {
			t.Errorf("report missing campaign %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "violations: 0") {
		t.Errorf("expected clean campaigns:\n%s", out)
	}
}

// The campaign report must be byte-identical run over run and at any
// parallelism — the same invariant TestJobsInvariance pins for the
// paper experiments.
func TestCrashCampaignDeterminism(t *testing.T) {
	run := func(jobs int) string {
		var buf bytes.Buffer
		if err := RunCrash(NewRunner(Quick, jobs), &buf, []string{"lsm", "kvaof"}, 8); err != nil {
			t.Fatalf("RunCrash (j=%d): %v\n%s", jobs, err, buf.String())
		}
		return buf.String()
	}
	seq := run(1)
	again := run(1)
	par := run(8)
	if seq != again {
		t.Fatalf("report differs run over run:\n--- first\n%s\n--- second\n%s", seq, again)
	}
	if seq != par {
		t.Fatalf("report differs between -j 1 and -j 8:\n--- j1\n%s\n--- j8\n%s", seq, par)
	}
}

// Installing an injector with an empty plan must not perturb the
// fault-free virtual timing: the hooks only observe.
func TestEmptyPlanDoesNotPerturbTiming(t *testing.T) {
	run := func(install bool) sim.Time {
		env := sim.NewEnv()
		if install {
			fault.Install(env, fault.Plan{Seed: 123})
		}
		env.Go("wal", func(p *sim.Proc) {
			cyc, err := buildWALCrash(env, p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for i := 0; i < 16; i++ {
				if _, err := cyc.Step(p, i); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
		env.Run()
		return env.Now()
	}
	plain, injected := run(false), run(true)
	if plain != injected {
		t.Fatalf("virtual time shifted by an idle injector: %d vs %d ns", int64(plain), int64(injected))
	}
}

// With an undersized capacitor bank the dump reports ErrInsufficient,
// nothing persists (Persisted=false), and recovery must fall back to a
// clean WAL replay of whatever reached NAND — no torn garbage, no
// phantom records, and the log stays usable.
func TestCapacitorExhaustionFallsBackToWALReplay(t *testing.T) {
	cfg := crashStackConfig()
	cfg.CapacitorsUF = []float64{1} // ~72 µJ: hopeless for a 1 MB dump
	env := sim.NewEnv()
	env.Go("t", func(p *sim.Proc) {
		ssd := core.New(env, cfg)
		fs := vfs.New(ssd.Device())
		f, err := fs.Create("txlog", 2<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcfg := wal.Config{
			Mode:         wal.BA,
			File:         f,
			SegmentBytes: cfg.BABufferBytes / 2,
			SSD:          ssd,
			EIDs:         []core.EID{0, 1},
		}
		l, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		for i := 0; i < 10; i++ {
			lsn, err := l.Append(p, []byte(crashValue(crashKey("cap", i))))
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		rep, err := ssd.PowerLoss(p)
		if !errors.Is(err, core.ErrInsufficient) {
			t.Fatalf("power loss err = %v, want ErrInsufficient", err)
		}
		if rep.Persisted {
			t.Fatal("dump persisted on an exhausted capacitor bank")
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		l2, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal reopen: %v", err)
		}
		got := 0
		err = l2.Recover(p, func(_ wal.LSN, payload []byte) error {
			got++
			if keyOf(string(payload)) == "" {
				t.Errorf("replayed garbage record %q", payload)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		// All ten commits lived only in the BA-buffer; with the dump
		// lost the block-mode scan legitimately finds nothing.
		if got != 0 {
			t.Errorf("recovered %d records from a lost buffer", got)
		}
		// The log must keep working after the fallback.
		lsn, err := l2.Append(p, []byte(crashValue("cap-after")))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l2.Commit(p, lsn); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
	})
	env.Run()
}

// A dump cut mid-flight must surface as ErrDumpTorn with
// Persisted=false — and never restore a half-written image.
func TestDumpCutLeavesNoTornImage(t *testing.T) {
	env := sim.NewEnv()
	fault.Install(env, fault.Plan{Seed: 5, CutDumpAfterPages: 3})
	env.Go("t", func(p *sim.Proc) {
		ssd := core.New(env, crashStackConfig())
		fs := vfs.New(ssd.Device())
		f, err := fs.Create("txlog", 2<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcfg := wal.Config{
			Mode:         wal.BA,
			File:         f,
			SegmentBytes: crashStackConfig().BABufferBytes / 2,
			SSD:          ssd,
			EIDs:         []core.EID{0, 1},
		}
		l, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		lsn, err := l.Append(p, []byte(crashValue("torn-0")))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.Commit(p, lsn); err != nil {
			t.Fatalf("commit: %v", err)
		}
		rep, err := ssd.PowerLoss(p)
		if !errors.Is(err, core.ErrDumpTorn) {
			t.Fatalf("power loss err = %v, want ErrDumpTorn", err)
		}
		if rep.Persisted {
			t.Fatal("torn dump reported as persisted")
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if ssd.HasDump() {
			t.Fatal("torn dump image survived power-on")
		}
	})
	env.Run()
}

// A driver may score a refused recovery as "nothing recovered" only when
// the dump was lost and every unreadable page on the log device sat
// under a BA pin. Pin how often each campaign that cuts dumps takes that
// exit, so a change that starts excusing more points shows up as a
// failure, not as quietly weaker coverage.
func TestWalSegExcusedPoints(t *testing.T) {
	for _, tc := range []struct {
		name         string
		points, want int
	}{
		{"walseg", 128, 1}, // point 28: BA_FLUSH program torn, dump cut after one page
		{"pglite-ckpt", 128, 0},
		{"pglite-ckpt", 32, 1}, // crash-smoke's point 28: the same tear, of the XLOG's slot 0
		{"kvaof-ckpt", 128, 0},
		{"jfs-ckpt", 128, 0},
	} {
		name, want := tc.name, tc.want
		c, err := NewCrashCampaign(name, tc.points)
		if err != nil {
			t.Fatal(err)
		}
		var stacks []*stack // points run one at a time below
		build := c.Build
		c.Build = func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
			cyc, err := build(env, p)
			switch cyc := cyc.(type) {
			case *walSegCrash:
				stacks = append(stacks, cyc.stack)
			case *pgCrash:
				stacks = append(stacks, cyc.stack)
			case *aofCrash:
				stacks = append(stacks, cyc.stack)
			case *jfsCrash:
				stacks = append(stacks, cyc.stack)
			}
			return cyc, err
		}
		rep, err := c.Run(func(n int, fn func(i int)) {
			for i := 0; i < n; i++ {
				fn(i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := rep.Violations(); len(v) != 0 {
			t.Fatalf("%s: %d violations, first: %+v", name, len(v), v[0])
		}
		excused := 0
		for _, s := range stacks {
			if s.excused {
				excused++
				if !s.dumpLost || len(s.pinned) == 0 {
					t.Errorf("%s: excused a point with dumpLost=%v and %d pinned ranges", name, s.dumpLost, len(s.pinned))
				}
			}
		}
		if excused != want {
			t.Errorf("%s: %d-point campaign excused %d points, want exactly %d", name, tc.points, excused, want)
		}
	}
}

// The blkgc profile must actually collect while the crash points fall:
// by the end of its steps the drive has relocated pages in multi-run
// victims, and a short campaign over it is clean.
func TestBlkGCCrashProfileCollects(t *testing.T) {
	env := sim.NewEnv()
	var st ftl.Stats
	env.Go("profile", func(p *sim.Proc) {
		cyc, err := buildBlkGCCrash(env, p)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		c := cyc.(*blkGCCrash)
		for i := 0; i < 192; i++ {
			if _, err := c.Step(p, i); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if err := c.ssd.Device().Drain(p); err != nil {
			t.Fatal(err)
		}
		st = c.ssd.Device().FTL().Stats()
	})
	env.Run()
	if st.GCRuns < 20 || st.GCRelocations < 12*st.GCRuns {
		t.Fatalf("profile relocated %d pages in %d collections; want a drive in steady GC with victims of several runs", st.GCRelocations, st.GCRuns)
	}
	var buf bytes.Buffer
	if err := RunCrash(runner(Quick), &buf, []string{"blkgc"}, 12); err != nil {
		t.Fatalf("RunCrash: %v\n%s", err, buf.String())
	}
}
