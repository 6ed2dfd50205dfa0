//go:build go1.24

package core

import (
	"maps"
	"runtime"
	"testing"
	"weak"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// A collector keeps every environment's obs set until it writes its
// reports, but not the drive behind it: once the environment shuts
// down, the drive is garbage, and the set still reports its gauges.
func TestCollectedDriveIsFreedAtShutdown(t *testing.T) {
	c := obs.NewCollector(true)
	c.EnableSampling()
	env := sim.NewEnv()
	c.Collect(obs.Of(env))
	drive := runDrive(t, env)
	before := c.MergedSnapshot().Gauges
	env.Shutdown()
	runtime.GC()
	if drive.Value() != nil {
		t.Fatal("the collector keeps a shut-down environment's drive alive")
	}
	after := c.MergedSnapshot().Gauges
	if _, ok := after["ftl.free_blocks"]; !ok || !maps.Equal(after, before) {
		t.Fatalf("gauges %v after shutdown, %v before", after, before)
	}
}

// runDrive builds a drive on env, writes through it and returns a weak
// pointer to it, so no stack slot of the caller holds the drive.
func runDrive(t *testing.T, env *sim.Env) weak.Pointer[TwoBSSD] {
	s := New(env, SmallConfig())
	env.Go("t", func(p *sim.Proc) {
		if err := s.Device().WritePages(p, 0, make([]byte, s.PageSize())); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	return weak.Make(s)
}
