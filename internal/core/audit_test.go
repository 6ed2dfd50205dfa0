package core

import (
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// The mapping-table audit passes a table BAPin built, allocating
// nothing, and names the two entries of a planted overlap in either
// space.
func TestAuditFindsOverlappingEntries(t *testing.T) {
	env := sim.NewEnv()
	s := newSSD(env)
	env.Go("t", func(p *sim.Proc) {
		for i, pin := range []struct {
			off int
			lba ftl.LBA
		}{{0, 0}, {4 * 4096, 8}} {
			if err := s.BAPin(p, EID(i), pin.off, pin.lba, 2); err != nil {
				t.Fatal(err)
			}
		}
	})
	env.Run()
	if n := testing.AllocsPerRun(10, func() {
		if err := s.Audit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Audit allocates %.1f times a run, want 0", n)
	}
	for _, tc := range []struct {
		plant Entry
		want  string
	}{
		{Entry{ID: 2, Offset: 4096, LBA: 100, Pages: 1}, "2bssd: entries 0 and 2 overlap in the BA-buffer"},
		{Entry{ID: 2, Offset: 32 * 4096, LBA: 9, Pages: 1}, "2bssd: entries 1 and 2 overlap in LBA space"},
		{Entry{ID: 2, Offset: 32 * 4096, LBA: 10, Pages: 1}, ""},
	} {
		s.table[2] = tc.plant
		if err := s.Audit(); (err == nil) != (tc.want == "") || (err != nil && err.Error() != tc.want) {
			t.Errorf("planted %+v: audit %v, want %q", tc.plant, err, tc.want)
		}
	}
}
