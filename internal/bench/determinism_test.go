package bench

import (
	"bytes"
	"testing"

	"twobssd/internal/obs"
)

// TestExperimentsDeterministic runs every experiment twice and demands
// byte-identical table output. This is the guard that lets the sim
// kernel and the parallel runner be optimised freely: any scheduling
// or ordering leak into virtual-time results fails here.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	for _, ex := range Experiments() {
		if !ex.InAll {
			continue // the reliability gates have their own determinism tests
		}
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			var a, b bytes.Buffer
			for _, w := range []*bytes.Buffer{&a, &b} {
				if err := ex.Run(runner(Quick), w); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("two runs of %s differ:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					ex.ID, a.String(), b.String())
			}
		})
	}
}

// TestJobsInvariance runs the whole experiment suite at -j 1 (strictly
// sequential, the legacy execution order) and at -j 8 and demands
// byte-identical tables AND an identical merged metrics snapshot AND an
// identical merged metric timeline. Worker parallelism must be
// invisible in every result, sampled series included.
func TestJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	sweep := func(jobs int) (tables, metrics, timeline []byte) {
		r := NewRunner(Quick, jobs)
		col := obs.NewCollector(false)
		col.EnableSampling()
		col.Install()
		defer col.Uninstall()
		var out bytes.Buffer
		for _, ex := range Experiments() {
			if !ex.InAll {
				continue
			}
			if err := ex.Run(r, &out); err != nil {
				t.Fatalf("jobs=%d: %s: %v", jobs, ex.ID, err)
			}
		}
		var m, tl bytes.Buffer
		if err := col.WriteMetricsJSON(&m); err != nil {
			t.Fatalf("jobs=%d: metrics snapshot: %v", jobs, err)
		}
		if err := col.WriteTimelineJSON(&tl); err != nil {
			t.Fatalf("jobs=%d: timeline: %v", jobs, err)
		}
		return out.Bytes(), m.Bytes(), tl.Bytes()
	}
	t1, m1, tl1 := sweep(1)
	t8, m8, tl8 := sweep(8)
	if !bytes.Equal(t1, t8) {
		t.Errorf("table output differs between -j 1 and -j 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Errorf("merged metrics snapshot differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
	}
	if !bytes.Equal(tl1, tl8) {
		t.Errorf("merged timeline differs between -j 1 and -j 8 (j1 %d bytes, j8 %d bytes)", len(tl1), len(tl8))
	}
	if len(tl1) < 100 {
		t.Errorf("merged timeline is empty: %s", tl1)
	}
}
