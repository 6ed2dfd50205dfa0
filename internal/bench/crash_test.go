package bench

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// crashRow returns the named crash row's sweep of pts points.
func crashRow(t *testing.T, name string, pts int) *fault.Crash {
	t.Helper()
	i := slices.IndexFunc(campaigns, func(c campaign) bool { return c.name == name && c.fuzz == nil })
	if i < 0 {
		t.Fatalf("no crash row %q", name)
	}
	return campaigns[i].crash(pts)
}

// A short sweep over every workload must hold the durability contract.
func TestCrashCampaignsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := runCampaigns(runner(Quick), &buf, "crash", campaignNames("crash", false), 6, -1); err != nil {
		t.Fatalf("runCampaigns: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, name := range campaignNames("crash", false) {
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
		if err := runCampaigns(NewRunner(Quick, jobs), &buf, "crash", []string{"lsm", "kvaof"}, 8, -1); err != nil {
			t.Fatalf("runCampaigns (j=%d): %v\n%s", jobs, err, buf.String())
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
			fault.Install(env, fault.Plan{})
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
// nothing persists, and recovery must fall back to a
// clean WAL replay of whatever reached NAND — no torn garbage, no
// phantom records, and the log stays usable.
func TestCapacitorExhaustionFallsBackToWALReplay(t *testing.T) {
	cfg := core.SmallConfig()
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
		if _, err := ssd.PowerLoss(p); !errors.Is(err, core.ErrInsufficient) {
			t.Fatalf("power loss err = %v, want ErrInsufficient", err)
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

// A dump cut mid-flight must surface as ErrDumpTorn — and never restore
// a half-written image.
func TestDumpCutLeavesNoTornImage(t *testing.T) {
	env := sim.NewEnv()
	fault.Install(env, fault.Plan{CutDumpAfterPages: 3})
	env.Go("t", func(p *sim.Proc) {
		ssd := core.New(env, core.SmallConfig())
		fs := vfs.New(ssd.Device())
		f, err := fs.Create("txlog", 2<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcfg := wal.Config{
			Mode:         wal.BA,
			File:         f,
			SegmentBytes: core.SmallConfig().BABufferBytes / 2,
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
		if _, err := ssd.PowerLoss(p); !errors.Is(err, core.ErrDumpTorn) {
			t.Fatalf("power loss err = %v, want ErrDumpTorn", err)
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if ents := ssd.Entries(); len(ents) != 0 {
			t.Fatalf("torn dump image restored entries %+v", ents)
		}
	})
	env.Run()
}

// A driver may score a refused recovery as "nothing recovered" only when
// the dump was lost and every unreadable page on the log device sat
// under a BA pin. Pin how often each campaign that cuts dumps takes that
// exit, so a change that starts excusing more points shows up as a
// failure, not as quietly weaker coverage.
//
// No campaign takes it any more. walseg's point 28 and crash-smoke's
// pglite-ckpt point 28 did until the dump covered only mapped pages:
// there a BA_FLUSH of the log window (LBAs 0–1) is in flight when the
// cut lands, and the dump is cut after its first page. The dump used to
// put 12 programs in flight before the cut fired (one per dump block)
// and now puts 4 (the table maps 4 pages), so the flush's program of
// LBA 1 no longer queues behind them and lands intact at 138 µs, before
// the buffer is scrambled at 188 µs. And PowerOn, with nothing to
// restore and room for a full dump, no longer spends 3 ms erasing, so
// the log is recovered before LBA 0's program lands at 238 µs and reads
// the previous, intact version. Nor does PowerOn read the dump area:
// the torn dump leaves block 0 level with the other dump blocks, which
// no whole image does, so a read of its last page — one that would
// wait behind LBA 0's program on die 0 — is skipped.
// TestTornLogExcusedConstructed keeps the exit exercised.
func TestWalSegExcusedPoints(t *testing.T) {
	for _, tc := range []struct {
		name         string
		points, want int
	}{
		{"walseg", 128, 0},
		{"pglite-ckpt", 128, 0},
		{"pglite-ckpt", 32, 0},
		{"kvaof-ckpt", 128, 0},
		{"jfs-ckpt", 128, 0},
	} {
		name, want := tc.name, tc.want
		c := crashRow(t, name, tc.points)
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
		rep, err := c.Campaign().Run(func(n int, fn func(i int)) {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}, "crash/"+name)
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

// The torn-under-pin exit, on a constructed point: a log page that
// fails its integrity tag is excused only when the dump was lost and the
// page sat under a BA pin at the cut; otherwise the error comes back.
func TestTornLogExcusedConstructed(t *testing.T) {
	env := sim.NewEnv()
	env.Go("t", func(p *sim.Proc) {
		s := newCrashStack(env)
		ps := s.logFS.PageSize()
		f, err := s.logFS.Create("txlog", int64(4*ps))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.WriteAt(p, 0, bytes.Repeat([]byte{0x11}, 4*ps)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := s.ssd.Device().Drain(p); err != nil {
			t.Fatalf("drain: %v", err)
		}
		lba := f.LBA(int64(ps)) // the file's second page
		ppa, ok := s.ssd.Device().FTL().PPAOf(lba)
		if !ok || !s.ssd.Device().Flash().CorruptPage(ppa, 1) {
			t.Fatal("could not corrupt the log page")
		}
		rerr := f.ReadAt(p, int64(ps), make([]byte, ps))
		if !errors.Is(rerr, integrity.ErrPageCorrupt) {
			t.Fatalf("read of the corrupted page: err = %v, want ErrPageCorrupt", rerr)
		}
		under := []core.Entry{{ID: 0, LBA: lba, Pages: 1}}
		for _, tc := range []struct {
			name     string
			dumpLost bool
			pinned   []core.Entry
			excused  bool
		}{
			{"dump persisted", false, under, false},
			{"page never pinned", true, []core.Entry{{ID: 0, LBA: lba + 1, Pages: 1}}, false},
			{"lost dump, page under a pin", true, under, true},
		} {
			s.dumpLost, s.pinned, s.excused = tc.dumpLost, tc.pinned, false
			excused, err := s.tornLogExcused(p, rerr)
			if excused != tc.excused || s.excused != tc.excused || (err == nil) != tc.excused {
				t.Errorf("%s: excused=%v (stack %v) err=%v, want excused=%v", tc.name, excused, s.excused, err, tc.excused)
			}
		}
	})
	env.Run()
}

// The blkgc profile must actually collect while the crash points fall:
// by the end of its steps the drive has relocated pages in multi-run
// victims, and a short campaign over it is clean.
func TestBlkGCCrashProfileCollects(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
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
	})
	env.Run()
	if runs, relocs := counter(t, env, "ftl.gc_runs"), counter(t, env, "ftl.gc_relocations"); runs < 20 || relocs < 12*runs {
		t.Fatalf("profile relocated %d pages in %d collections; want a drive in steady GC with victims of several runs", relocs, runs)
	}
	var buf bytes.Buffer
	if err := runCampaigns(runner(Quick), &buf, "crash", []string{"blkgc"}, 12, -1); err != nil {
		t.Fatalf("runCampaigns: %v\n%s", err, buf.String())
	}
}

// plantedLSM is an lsm crash cycle whose recovery ends with plant run on
// the cycle, its stack and the DB it reopened: a state no working
// recovery leaves.
type plantedLSM struct {
	*lsmCrash
	plant func(*lsmCrash)
}

func (c plantedLSM) Recover(p *sim.Proc) ([]string, []string, error) {
	rec, ph, err := c.lsmCrash.Recover(p)
	c.plant(c.lsmCrash)
	return rec, ph, err
}

// plantedWalSeg is a walseg crash cycle whose recovery ends with plant
// run on the log the cut left.
type plantedWalSeg struct {
	*walSegCrash
	plant func(*wal.Log)
}

func (c plantedWalSeg) Recover(p *sim.Proc) ([]string, []string, error) {
	rec, ph, err := c.walSegCrash.Recover(p)
	c.plant(c.sl)
	return rec, ph, err
}

// plantedAuditRun sweeps 4 points of the named crash row with each
// cycle wrapped by plant, and checks that every point violates through
// the audit alone, with an audit naming want and no record lost.
func plantedAuditRun(t *testing.T, row string, plant func(fault.Cycle) fault.Cycle, want string) {
	t.Helper()
	c := crashRow(t, row, 4)
	build := c.Build
	c.Build = func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		cyc, err := build(env, p)
		if err != nil {
			return nil, err
		}
		return plant(cyc), nil
	}
	rep, err := c.Campaign().Run(runner(Quick).parallelFor, "crash/"+row)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 4 {
		t.Fatalf("%d of 4 points violated", len(v))
	}
	for _, f := range rep.Findings {
		if pr := f.Result; !strings.Contains(pr.Audit, want) || len(pr.Lost) > 0 || f.Err != "" {
			t.Errorf("point %d: audit %q, lost %v, err %q; want %q alone", f.Point.Index, pr.Audit, pr.Lost, f.Err, want)
		}
	}
}

// plantedLSMAuditRun is plantedAuditRun over the crash-smoke lsm row,
// plant run on the cycle after each recovery.
func plantedLSMAuditRun(t *testing.T, plant func(*lsmCrash), want string) {
	t.Helper()
	plantedAuditRun(t, "lsm", func(c fault.Cycle) fault.Cycle { return plantedLSM{c.(*lsmCrash), plant} }, want)
}

// field is a settable view of s's unexported field name.
func field(s any, name string) reflect.Value {
	f := reflect.ValueOf(s).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// A planted overlap in the mapping table — two entries over one buffer
// page, a table no BAPin can build — fails the crash-smoke lsm row
// through the stack's audit.
func TestPlantedOverlapFailsCrashAudit(t *testing.T) {
	plantedLSMAuditRun(t, func(s *lsmCrash) {
		table := field(s.ssd, "table").Interface().([]core.Entry)
		n := len(table)
		table[n-2] = core.Entry{ID: core.EID(n - 2), Offset: 0, LBA: 1000, Pages: 1}
		table[n-1] = core.Entry{ID: core.EID(n - 1), Offset: 0, LBA: 2000, Pages: 1}
	}, "overlap in the BA-buffer")
}

// A write-buffer record left behind after its drain — one holding no
// copy, queued or in flight — fails the crash-smoke lsm row through the
// stack's audit.
func TestPlantedLeftoverBufferRecordFailsCrashAudit(t *testing.T) {
	plantedLSMAuditRun(t, func(s *lsmCrash) {
		byLBA := field(s.ssd.Device(), "byLBA")
		lba := reflect.ValueOf(ftl.LBA(s.ssd.Device().Pages() - 1))
		if byLBA.MapIndex(lba).IsValid() {
			panic("the planted LBA is buffered")
		}
		byLBA.SetMapIndex(lba, reflect.New(byLBA.Type().Elem().Elem()))
	}, "keeps a buffer record with no copy")
}

// A file dropped from the namespace with its extent never returned to
// the free list — what a Remove that forgets to release leaves — fails
// the crash-smoke lsm row through the file system's audit.
func TestPlantedLeakedExtentFailsCrashAudit(t *testing.T) {
	plantedLSMAuditRun(t, func(c *lsmCrash) {
		names := c.dataFS.List()
		if len(names) == 0 {
			panic("the recovered stack holds no file")
		}
		field(c.dataFS, "files").SetMapIndex(reflect.ValueOf(names[0]), reflect.Value{})
	}, "vfs audit: files and free extents cover")
}

// An L1 installed out of key order in the DB recovery reopened — what a
// compaction that appends its outputs unsorted leaves — fails the
// crash-smoke lsm row through the engine's audit.
func TestPlantedOutOfOrderL1FailsCrashAudit(t *testing.T) {
	plantedLSMAuditRun(t, func(c *lsmCrash) {
		l1 := field(c.db, "levels").Index(1)
		for i, keys := range [][2]string{{"lsm-b", "lsm-c"}, {"lsm-a", "lsm-a"}} {
			f, err := c.dataFS.Create(fmt.Sprintf("planted-%d", i), 1)
			if err != nil {
				panic(err)
			}
			tb := reflect.New(l1.Type().Elem().Elem())
			field(tb.Interface(), "file").Set(reflect.ValueOf(f))
			field(tb.Interface(), "first").Set(reflect.ValueOf([]byte(keys[0])))
			field(tb.Interface(), "last").Set(reflect.ValueOf([]byte(keys[1])))
			l1.Set(reflect.Append(l1, tb))
		}
	}, "out of key order")
}

// A record left listed as storing after its store retired — what store
// leaves when it forgets to remove the record — fails every point of
// the walseg driver's rows, on both commit paths, through the log's
// audit once the durable frontier has passed it. Planted in the code,
// that bug never gets this far: the first BA commit waits on the record
// forever (awaitStores).
func TestPlantedStaleStoringFailsWalSegAudit(t *testing.T) {
	for _, row := range []string{"walseg", "walseg-sync"} {
		t.Run(row, func(t *testing.T) {
			plantedAuditRun(t, row, func(c fault.Cycle) fault.Cycle {
				return plantedWalSeg{c.(*walSegCrash), func(l *wal.Log) {
					storing := field(l, "storing")
					storing.Set(reflect.Append(storing, reflect.ValueOf(l.DurableOff()-1)))
				}}
			}, "storing outside")
		})
	}
}

// A power cut while a collection's erase is in flight. The erase runs
// on its die's eraser, not on the collecting proc, so it finishes after
// the cut, as a relocation program in flight does (DESIGN.md §7): the
// dump persists, the victim is erased back into the pool, every
// acknowledged write reads back, and the FTL, core and device audits
// pass. The writer paces its steps so the write buffer stays short and
// the dump fits the reserve.
func TestCutDuringGCErase(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	reg := obs.Of(env).Registry()
	// Victims handed to an eraser and not erased yet; no dump-area
	// erase happens before the power-on, so every erase is a victim's.
	pending := func() int64 {
		return int64(reg.CounterValue("ftl.gc_runs")) - int64(reg.CounterValue("nand.block_erases"))
	}
	env.Go("t", func(p *sim.Proc) {
		cyc, err := buildBlkGCCrash(env, p)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		c := cyc.(*blkGCCrash)
		fc := c.ssd.Device().Flash().Config()
		for i := 0; pending() <= 0; i++ {
			if i == 2000 {
				t.Fatal("no collection handed a victim to an eraser in 2000 steps")
			}
			if _, err := c.Step(p, i); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			p.Sleep(200 * sim.Microsecond)
		}
		inFlight := pending()
		erased := reg.CounterValue("nand.block_erases")
		persisted, err := c.Crash(p)
		if err != nil || !persisted {
			t.Fatalf("crash with %d erases in flight: persisted %v, %v", inFlight, persisted, err)
		}
		p.Sleep(fc.EraseLatency)
		if after := int64(reg.CounterValue("nand.block_erases") - erased); after < inFlight {
			t.Fatalf("%d victims were waiting for their erase at the cut, %d blocks erased after it", inFlight, after)
		}
		if err := c.Audit(); err != nil {
			t.Fatal(err)
		}
		if _, phantoms, err := c.Recover(p); err != nil || len(phantoms) > 0 {
			t.Fatalf("recover: %d pages not at their acknowledged version, %v", len(phantoms), err)
		}
	})
	env.Run()
}
