package sim

// Fan is a fork-join: Run starts n workers on one body and parks the
// caller until the last returns — one command striped over channels and
// dies, a relocation batch, a capacitor dump. The workers start at the
// current instant in index order under the Fan's name and share one
// copy of Run's argument. The last worker to return wakes the caller at
// the ready-ring position a one-waiter Signal's Fire would take, so a
// Fan moves no virtual nanosecond and no event against a WaitGroup
// joined over the same GoIdx workers. Join records are pooled: a
// steady-state Run allocates nothing, and Runs in flight at once each
// hold their own.
type Fan[A any] struct {
	env   *Env
	name  string
	label string // "fan <name>", precomputed for allocation-free parking
	body  func(w *Proc, a *A, i int) error
	free  []*join[A]
}

// join is one Run: the shared argument, the workers still running, the
// first error one returned, and the parked caller.
type join[A any] struct {
	f      *Fan[A]
	a      A
	left   int
	err    error
	caller *Proc
	work   func(w *Proc, i int) // j.run, bound once
}

// NewFan creates a fork-join whose worker i runs body(w, a, i) on its
// own process w.
func NewFan[A any](env *Env, name string, body func(w *Proc, a *A, i int) error) *Fan[A] {
	return &Fan[A]{env: env, name: name, label: "fan " + name, body: body}
}

// Run starts n workers on a and parks p until every one has returned;
// it returns the first error a worker returned. With n <= 0 it returns
// at once, without parking.
func (f *Fan[A]) Run(p *Proc, n int, a A) error {
	if n <= 0 {
		return nil
	}
	var j *join[A]
	if k := len(f.free); k > 0 {
		j = f.free[k-1]
		f.free = f.free[:k-1]
	} else {
		j = &join[A]{f: f}
		j.work = j.run
	}
	j.a, j.left, j.caller = a, n, p
	for i := 0; i < n; i++ {
		f.env.GoIdx(f.name, i, j.work)
	}
	p.block(f.label)
	err := j.err
	var zero A // neither the argument nor the error outlives the Run
	j.a, j.err, j.caller = zero, nil, nil
	f.free = append(f.free, j)
	return err
}

func (j *join[A]) run(w *Proc, i int) {
	if err := j.f.body(w, &j.a, i); err != nil && j.err == nil {
		j.err = err
	}
	if j.left--; j.left == 0 {
		j.f.env.unblock(j.caller)
	}
}
