package kvaof

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twobssd/internal/core"
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

// config places the AOF the paper's way — one entry over the whole
// BA-buffer; the block modes use only the segment size.
func (r *rig) config(mode wal.CommitMode) Config {
	return Config{
		LogFS: r.fs,
		Log: wal.Config{Mode: mode, SSD: r.ssd, EIDs: []core.EID{0},
			SegmentBytes: 64 * 4096},
		AOFBytes: 1 << 20,
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
		cfg := r.config(wal.Sync)
		cfg.AOFBytes = 64 << 10 // small AOF: force rewrites
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
		if s.Stats().Rewrites == 0 {
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
	r.env.Go("setup", func(p *sim.Proc) {
		var err error
		s, err = Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			c := c
			r.env.Go("client", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					s.Set(p, []byte(fmt.Sprintf("c%d-%d", c, i)), []byte("v"))
				}
			})
		}
	})
	r.env.Run()
	acq, waited, _, _ := 0, 0, 0, 0
	_ = acq
	_ = waited
	if s.Len() != 40 {
		t.Fatalf("len = %d", s.Len())
	}
	a, w, _, _ := s.loop.Stats()
	if a == 0 || w == 0 {
		t.Fatalf("expected contention on the command loop (acq=%d waited=%d)", a, w)
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

func TestIncrAppendExists(t *testing.T) {
	r := newRig()
	r.env.Go("t", func(p *sim.Proc) {
		s, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatal(err)
		}
		// INCR from missing key.
		if n, err := s.Incr(p, []byte("ctr")); err != nil || n != 1 {
			t.Fatalf("incr = %d, %v", n, err)
		}
		for i := 0; i < 9; i++ {
			s.Incr(p, []byte("ctr"))
		}
		if v, ok := s.Get(p, []byte("ctr")); !ok || string(v) != "10" {
			t.Fatalf("ctr = %q", v)
		}
		// APPEND builds up a string.
		if n, err := s.Append(p, []byte("logline"), []byte("hello ")); err != nil || n != 6 {
			t.Fatalf("append = %d, %v", n, err)
		}
		if n, _ := s.Append(p, []byte("logline"), []byte("world")); n != 11 {
			t.Fatalf("append 2 = %d", n)
		}
		if !s.Exists(p, []byte("logline")) || s.Exists(p, []byte("nope")) {
			t.Fatal("EXISTS wrong")
		}
		// All of it replays identically after a crash.
		s2, err := Open(r.env, p, r.config(wal.BA))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if v, _ := s2.Get(p, []byte("ctr")); string(v) != "10" {
			t.Fatalf("replayed ctr = %q", v)
		}
		if v, _ := s2.Get(p, []byte("logline")); string(v) != "hello world" {
			t.Fatalf("replayed logline = %q", v)
		}
	})
	r.env.Run()
}
