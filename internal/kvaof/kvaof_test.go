package kvaof

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

type rig struct {
	env *sim.Env
	ssd *core.TwoBSSD
	fs  *vfs.FS
}

func newRig() *rig {
	e := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 64
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.15
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 8
	cfg.BABufferBytes = 64 * 4096
	ssd := core.New(e, cfg)
	return &rig{env: e, ssd: ssd, fs: vfs.New(ssd.Device())}
}

// config places a 1 MB AOF the paper's way — one entry over the whole
// BA-buffer, which is also one file of the ring; the block modes use only
// the segment sizes.
func (r *rig) config(mode wal.CommitMode) Config {
	return r.sized(mode, 256<<10)
}

// sized is config with ring files (and BA window) of fileBytes each.
func (r *rig) sized(mode wal.CommitMode, fileBytes int) Config {
	return Config{Log: wal.Config{Mode: mode, FS: r.fs, Ring: 4, SegmentFileBytes: int64(fileBytes),
		SSD: r.ssd, EIDs: []core.EID{0}, SegmentBytes: fileBytes}}
}

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

// The store counts into the environment's "kvaof.*" series: SET is a
// set and GET a get, of which the ones that find their key are hits; a
// forced rewrite counts once.
func TestCountersAreRegistrySeries(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"a", "n"} {
			if err := s.Set(p, []byte(k), []byte("1")); err != nil {
				t.Fatal(err)
			}
		}
		s.Get(p, []byte("a"))
		s.Get(p, []byte("missing"))
		s.Get(p, []byte("n"))
		if err := s.Del(p, []byte("n")); err != nil {
			t.Fatal(err)
		}
		if err := s.rewrite(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"kvaof.sets", 2}, {"kvaof.gets", 3}, {"kvaof.hits", 2}, {"kvaof.dels", 1}, {"kvaof.rewrites", 1},
	} {
		if got := counter(t, r.env, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSetGetDel(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		s.Set(p, []byte("k1"), []byte("v1"))
		s.Set(p, []byte("k2"), []byte("v2"))
		if v, ok := s.Get(p, []byte("k1")); !ok || string(v) != "v1" {
			t.Fatalf("get k1: %q %v", v, ok)
		}
		s.Del(p, []byte("k1"))
		if _, ok := s.Get(p, []byte("k1")); ok {
			t.Fatal("deleted key visible")
		}
		if s.Len() != 1 {
			t.Fatalf("len = %d", s.Len())
		}
	})
	r.env.Run()
}

func TestReplayRebuildsDict(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, _ := Open(r.env, p, r.config(wal.Sync))
		for i := 0; i < 40; i++ {
			s.Set(p, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
		s.Del(p, []byte("k05"))
		// Crash and reopen.
		s2, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if s2.Len() != 39 {
			t.Fatalf("len = %d, want 39", s2.Len())
		}
		if v, ok := s2.Get(p, []byte("k07")); !ok || string(v) != "v7" {
			t.Fatalf("k07 = %q %v", v, ok)
		}
		if _, ok := s2.Get(p, []byte("k05")); ok {
			t.Fatal("deleted key resurrected")
		}
	})
	r.env.Run()
}

func TestAOFRewriteCompacts(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.Sync, 16<<10) // small AOF: force rewrites
		s, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 400)
		for i := 0; i < 400; i++ {
			if err := s.Set(p, []byte(fmt.Sprintf("k%02d", i%20)), val); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		if counter(t, r.env, "kvaof.rewrites") == 0 {
			t.Fatal("expected AOF rewrites")
		}
		if s.Len() != 20 {
			t.Fatalf("len = %d", s.Len())
		}
		// Rewritten AOF still replays correctly.
		s2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if s2.Len() != 20 {
			t.Fatalf("replayed len = %d", s2.Len())
		}
	})
	r.env.Run()
}

func TestBAAOFSurvivesPowerLoss(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := s.Set(p, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		if _, err := r.ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := r.ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		s2, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 30; i++ {
			v, ok := s2.Get(p, []byte(fmt.Sprintf("k%02d", i)))
			if !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("k%02d lost after power cycle (%q, %v)", i, v, ok)
			}
		}
	})
	r.env.Run()
}

func TestSingleThreadedSerialization(t *testing.T) {
	// Concurrent clients serialize through the command loop: total time
	// is at least the sum of individual command times.
	r := newRig()
	var s *Store
	var busy0, inSet sim.Duration
	r.env.Go("setup", func(p *sim.Proc) {
		var err error
		s, err = Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		busy0 = s.loop.Busy()
		for c := 0; c < 4; c++ {
			c := c
			r.env.Go("client", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					t0 := r.env.Now()
					s.Set(p, []byte(fmt.Sprintf("c%d-%d", c, i)), []byte("v"))
					inSet += sim.Duration(r.env.Now() - t0)
				}
			})
		}
	})
	r.env.Run()
	if s.Len() != 40 {
		t.Fatalf("len = %d", s.Len())
	}
	// A Set is a wait for the loop plus its hold of it: the clients
	// spent longer in Set than the loop was held only if they waited.
	if busy := s.loop.Busy() - busy0; busy == 0 || inSet <= busy {
		t.Fatalf("expected contention on the command loop (%v in Set, loop held %v)", inSet, busy)
	}
}

func TestBACommitBeatsSyncPerOp(t *testing.T) {
	opTime := func(mode wal.CommitMode) sim.Duration {
		r := newRig()
		var took sim.Duration
		r.env.Go("t", func(p *sim.Proc) {
			s, err := Open(r.env, p, r.config(mode))
			if err != nil {
				t.Fatal(err)
			}
			start := r.env.Now()
			for i := 0; i < 50; i++ {
				s.Set(p, []byte(fmt.Sprintf("k%d", i)), make([]byte, 64))
			}
			took = sim.Duration(r.env.Now()-start) / 50
		})
		r.env.Run()
		return took
	}
	ba, syn := opTime(wal.BA), opTime(wal.Sync)
	if ba >= syn {
		t.Fatalf("BA per-op %v not faster than sync %v", ba, syn)
	}
}

// Property: store equals a map under random commands with a replay.
func TestPropertyStoreMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		r := newRig()
		ok := true
		r.env.Go("t", func(p *sim.Proc) {
			s, err := Open(r.env, p, r.config(wal.Sync))
			if err != nil {
				ok = false
				return
			}
			rng := rand.New(rand.NewSource(seed))
			shadow := make(map[string]string)
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(25))
				if rng.Intn(4) == 0 {
					s.Del(p, []byte(k))
					delete(shadow, k)
				} else {
					v := fmt.Sprintf("v%d", i)
					s.Set(p, []byte(k), []byte(v))
					shadow[k] = v
				}
			}
			s2, err := Open(r.env, p, r.config(wal.Sync))
			if err != nil {
				ok = false
				return
			}
			if s2.Len() != len(shadow) {
				ok = false
				return
			}
			for k, want := range shadow {
				got, found := s2.Get(p, []byte(k))
				if !found || string(got) != want {
					ok = false
					return
				}
			}
		})
		r.env.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// A committed AOF record whose command the store never writes fails
// the replay instead of being skipped.
func TestReplayRejectsUnknownCommand(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, err := Open(r.env, p, r.config(wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Set(p, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		lsn, err := s.aof.Append(p, []byte{7, 1, 0, 0, 0, 'k'})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.aof.Commit(p, lsn); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(r.env, p, r.config(wal.Sync)); err == nil {
			t.Fatal("a record of command 7 replayed without an error")
		}
	})
	r.env.Run()
}

// powerCycle cuts power at an operation boundary and restores it.
func (r *rig) powerCycle(t *testing.T, p *sim.Proc) {
	t.Helper()
	if _, err := r.ssd.PowerLoss(p); err != nil {
		t.Fatalf("power loss: %v", err)
	}
	if err := r.ssd.PowerOn(p); err != nil {
		t.Fatalf("power on: %v", err)
	}
}

// mustEqual checks that the store holds exactly the acknowledged map.
func mustEqual(t *testing.T, p *sim.Proc, s *Store, acked map[string]string) {
	t.Helper()
	if s.Len() != len(acked) {
		t.Errorf("store has %d keys, %d were acknowledged", s.Len(), len(acked))
	}
	for k, want := range acked {
		if got, ok := s.Get(p, []byte(k)); !ok || string(got) != want {
			t.Errorf("%s = %.12q (found %v), acknowledged %.12q", k, got, ok, want)
		}
	}
}

// fixedValue is a 400-byte value naming its key and version: every SET
// record of a key has the same size, so a record boundary of one log
// generation is a record boundary of the next.
func fixedValue(key string, ver int) string {
	v := fmt.Sprintf("%s@%06d|", key, ver)
	return v + strings.Repeat("x", 400-len(v))
}

// TestBARewriteThenPowerLoss: fixed-size values over 20 keys on a 512 KB
// AOF, run to the first rewrite, five more acknowledged SETs, power cut.
// The reopened store must equal the acknowledged map: the records of the
// generation before the rewrite still sit in the BA window and in the
// ring's files, and none of them may be replayed over the snapshot.
func TestBARewriteThenPowerLoss(t *testing.T) {
	r := newRig()
	acked := map[string]string{}
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.BA, 128<<10)
		s, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		after := -1
		for i := 0; after != 0; i++ {
			k := fmt.Sprintf("k%02d", i%20)
			v := fixedValue(k, i)
			if err := s.Set(p, []byte(k), []byte(v)); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
			acked[k] = v
			switch {
			case after > 0:
				after--
			case counter(t, r.env, "kvaof.rewrites") == 1:
				after = 5
			case i > 5000:
				t.Fatal("the AOF never rewrote")
			}
		}
		r.powerCycle(t, p)
		s2, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		mustEqual(t, p, s2, acked)
	})
	r.env.Run()
}

// TestRewriteStoppedMidwayLosesNothing: a power trigger in this model
// only raises a flag that is polled between commands, so the one way to
// stop the writer between two appends of a rewrite is for the rewrite to
// fail. An AOF too small for its live set does that: distinct keys until
// a SET reports the rewrite overflowing, then a power cut. The snapshot
// is half written and the checkpoint never moved, so every acknowledged
// key must come back: snapshot first, truncate second.
func TestRewriteStoppedMidwayLosesNothing(t *testing.T) {
	for _, mode := range []wal.CommitMode{wal.Sync, wal.BA} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig()
			acked := map[string]string{}
			r.env.Go("t", func(p *sim.Proc) {
				cfg := r.sized(mode, 16<<10)
				s, err := Open(r.env, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					k := fmt.Sprintf("k%03d", i)
					v := fixedValue(k, i)
					err := s.Set(p, []byte(k), []byte(v))
					if errors.Is(err, wal.ErrWALFull) {
						break // the rewrite overflowed: this SET was never acknowledged
					}
					if err != nil || i > 1000 {
						t.Fatalf("set %d: %v", i, err)
					}
					acked[k] = v
				}
				if len(acked) < 40 {
					t.Fatalf("overflowed after %d keys: the AOF never held a live set worth rewriting", len(acked))
				}
				r.powerCycle(t, p)
				s2, err := Open(r.env, p, cfg)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				mustEqual(t, p, s2, acked)
			})
			r.env.Run()
		})
	}
}

// TestRewriteRunsAreDeterministic: unequal value sizes through two
// rewrites must leave the same AOF bytes at the same virtual time on
// every run — the snapshot may not follow Go's map order.
func TestRewriteRunsAreDeterministic(t *testing.T) {
	run := func() string {
		r := newRig()
		crc := crc32.NewIEEE()
		r.env.Go("t", func(p *sim.Proc) {
			cfg := r.sized(wal.BA, 16<<10)
			s, err := Open(r.env, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; counter(t, r.env, "kvaof.rewrites") < 2; i++ {
				k := fmt.Sprintf("k%02d", i%20)
				if err := s.Set(p, []byte(k), bytes.Repeat([]byte{byte(i)}, 100+37*(i%20))); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
			}
			if err := s.aof.FlushToNAND(p); err != nil {
				t.Fatalf("flush: %v", err)
			}
			for i := 0; i < cfg.Log.Ring; i++ {
				f, err := r.fs.Open(fmt.Sprintf("%s.%d", aofName, i))
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, f.Capacity())
				if err := f.ReadAt(p, 0, buf); err != nil {
					t.Fatalf("read %s: %v", f.Name(), err)
				}
				crc.Write(buf)
			}
		})
		r.env.Run()
		return fmt.Sprintf("end=%d media=%08x", r.env.Now(), crc.Sum32())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs differ:\n  %s\n  %s", a, b)
	}
}

// rmwGate is a device gate that rejects the write half of a
// read-modify-write: a one-page command right after a one-page command
// on the same page, which is what cutting a log's torn tail issues.
type rmwGate struct {
	last     ftl.LBA
	lastPage bool
}

func (g *rmwGate) Check(lba ftl.LBA, pages int) error {
	rmw := pages == 1 && g.lastPage && lba == g.last
	g.last, g.lastPage = lba, pages == 1
	if rmw {
		return device.ErrGated
	}
	return nil
}

// TestOpenFailsWhenTheTornTailCutFails: SETs over a 64 KB BA AOF lap
// its ring past two rewrites, then one record is staged uncommitted and
// the power is cut, so the reopen finds a torn tail in a recycled file
// and cuts it back. A gate rejects that cut's write: Open must fail with
// the cut's error, not come up to append after a tail that is not
// durable.
func TestOpenFailsWhenTheTornTailCutFails(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		cfg := r.sized(wal.BA, 16<<10)
		s, err := Open(r.env, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; counter(t, r.env, "kvaof.rewrites") < 2; i++ {
			k := fmt.Sprintf("k%02d", i%20)
			if err := s.Set(p, []byte(k), []byte(fixedValue(k, i))); err != nil || i > 5000 {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		if _, err := s.aof.Append(p, s.encodeCmd(cmdSet, []byte("staged"), []byte(fixedValue("staged", 0)))); err != nil {
			t.Fatalf("stage: %v", err)
		}
		r.powerCycle(t, p)
		dev := r.ssd.Device()
		dev.SetGate(&rmwGate{})
		if _, err = Open(r.env, p, cfg); !errors.Is(err, device.ErrGated) || !strings.Contains(err.Error(), "cutting the torn tail") {
			t.Fatalf("reopen with the cut rejected = %v, want the cut's error", err)
		}
		if n := counter(t, r.env, dev.Profile().Name+".gated_writes"); n != 1 {
			t.Fatalf("the gate rejected %d writes, want the cut's one", n)
		}
	})
	r.env.Run()
}
