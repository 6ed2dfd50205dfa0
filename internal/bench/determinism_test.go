package bench

import (
	"bytes"
	"testing"
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

// TestJobsInvariance runs the paper artifacts through Run at -j 1
// (strictly sequential) and at -j 8 and demands byte-identical stdout
// AND an identical merged metrics snapshot AND an identical merged
// metric timeline, with no gate failing. Worker parallelism must be
// invisible in every result, sampled series included.
func TestJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	jobsInvariant(t, "all")
}

// jobsInvariant runs the experiments ids selects through Run, with a
// timeline, at -j 1 and at -j 8, fails the test unless stdout, the
// merged metrics snapshot and the merged timeline are byte-identical
// and no gate fails, and returns the -j 1 metrics snapshot.
func jobsInvariant(t *testing.T, ids ...string) []byte {
	t.Helper()
	exps, err := Select(Experiments(), ids...)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(jobs int) (out, metrics, timeline []byte) {
		var o, m, tl bytes.Buffer
		res, err := Run(Config{Experiments: exps, Jobs: jobs, Timeline: true}, &o)
		if err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		if res.Failures > 0 {
			t.Fatalf("-j %d: %d gates failed:\n%s", jobs, res.Failures, o.String())
		}
		if err := res.WriteMetricsJSON(&m); err != nil {
			t.Fatalf("-j %d: metrics snapshot: %v", jobs, err)
		}
		if err := res.WriteTimelineJSON(&tl); err != nil {
			t.Fatalf("-j %d: timeline: %v", jobs, err)
		}
		return o.Bytes(), m.Bytes(), tl.Bytes()
	}
	o1, m1, tl1 := sweep(1)
	o8, m8, tl8 := sweep(8)
	if !bytes.Equal(o1, o8) {
		t.Errorf("stdout differs between -j 1 and -j 8")
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
	return m1
}
