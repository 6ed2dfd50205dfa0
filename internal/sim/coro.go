//go:build go1.23

package sim

import "iter"

// newProc makes a process with a fresh coroutine. iter.Pull is the one
// Go 1.23 API the kernel uses; the build constraint raises this file's
// language version above the module's go 1.22, which the benchmark
// module pins.
func (e *Env) newProc() *Proc {
	p := &Proc{env: e}
	p.resume, p.stop = iter.Pull(p.main)
	return p
}
