package bench

import "sync"

// The parallel experiment runner. Every experiment data point builds
// its own sim.Env, so independent points can run on independent host
// cores — the harness exploits the machine's parallelism the way the
// modeled device exploits its channels. Points are indexed, results
// land in index order, and each point's virtual-time arithmetic is
// untouched by where or when it runs, so tables and merged metrics are
// bit-identical to a sequential run (see determinism_test.go).
//
// One Runner is shared by every experiment of a bench2b invocation and
// its semaphore gates every simulation environment they build —
// including single-environment experiments and the experiments
// cmd/bench2b starts concurrently — so at most Jobs() environments
// execute at once however the work is nested. Experiment goroutines
// themselves only coordinate: they block in points and burn no CPU.

// Runner carries what every experiment needs: the run's scale and the
// one point executor (points).
type Runner struct {
	Scale

	jobs int
	sem  chan struct{}
}

// NewRunner returns a Runner that lets up to jobs points (minimum 1)
// run concurrently.
func NewRunner(s Scale, jobs int) *Runner {
	if jobs < 1 {
		jobs = 1
	}
	return &Runner{Scale: s, jobs: jobs, sem: make(chan struct{}, jobs)}
}

// Jobs reports the Runner's parallelism degree.
func (r *Runner) Jobs() int { return r.jobs }

// points computes fn(0..n-1) and returns the results in index order.
// Every point holds a slot of the Runner's semaphore while it runs, so
// a point function must not call points itself. With Jobs() == 1 the
// points run strictly sequentially on the calling goroutine — the exact
// legacy execution order, which -benchjson's per-experiment attribution
// relies on. Otherwise each point (even a lone one) runs on its own
// goroutine; a panicking point re-panics on the caller after every
// point has finished.
func points[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if r.jobs <= 1 {
		for i := range out {
			func() {
				r.sem <- struct{}{}
				defer func() { <-r.sem }()
				out[i] = fn(i)
			}()
		}
		return out
	}
	var (
		wg    sync.WaitGroup
		pmu   sync.Mutex
		pval  interface{}
		pseen bool
	)
	for i := range out {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			defer func() {
				if v := recover(); v != nil {
					pmu.Lock()
					if !pseen {
						pseen, pval = true, v
					}
					pmu.Unlock()
				}
			}()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	if pseen {
		panic(pval)
	}
	return out
}

// pointsErr is points for fallible point functions: every result in
// index order, or the lowest-indexed error.
func pointsErr[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	errs := make([]error, n)
	out := points(r, n, func(i int) (v T) {
		v, errs[i] = fn(i)
		return v
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// single runs a one-environment experiment as one point, so it too
// takes a slot of the Runner's semaphore.
func single(r *Runner, gen func(Scale) *Table) *Table {
	return points(r, 1, func(int) *Table { return gen(r.Scale) })[0]
}

// parallelFor adapts points to the fault.Campaign fan-out signature;
// a campaign runs its profile pass and its shrinker through it too.
func (r *Runner) parallelFor(n int, fn func(i int)) {
	points(r, n, func(i int) struct{} { fn(i); return struct{}{} })
}
