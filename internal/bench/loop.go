package bench

import (
	"fmt"

	"twobssd/internal/histo"
	"twobssd/internal/sim"
)

// Closed is a closed loop of timed ops, the shape of every timed table
// (Fig 7–10 and the extensions): a setup body runs on a proc, then Ops
// ops are split among Clients as evenly as they allow (the first
// Ops%Clients take one more), and each client issues its next op when
// its last one returns. With no clients the setup proc issues them
// itself. With no setup the clients start at the environment's current
// instant: a caller that ran an engine's load to idle first starts its
// clients after the load's background work, not during it.
type Closed struct {
	Env          *sim.Env
	Setup        func(p *sim.Proc) error
	Clients, Ops int
	// Op is client c's ith op; a client's ops run on one proc.
	Op func(p *sim.Proc, c, i int) error
	// Acked, when set, runs untimed on client c's proc after each op it
	// acked, before the next is issued.
	Acked func(p *sim.Proc, lp *Loop, c int) error
}

// Loop is what a closed loop measured. A rate divides by its op window
// and a latency comes from its histogram: one rule for each.
type Loop struct {
	Lat *histo.H // every acked op, issue to ack
	win opWindow
	err error // the first failure: no client issues an op after it
}

// Rate is the acked ops per second of the op window.
func (l *Loop) Rate() float64 { return l.win.rate(float64(l.Lat.N())) }

// Run runs the loop to idle. The error is the first failure, of the
// setup or of an op.
func (c Closed) Run() (*Loop, error) {
	lp := &Loop{Lat: &histo.H{}}
	spawn := func() {
		per, extra := c.Ops/c.Clients, c.Ops%c.Clients
		for id := 0; id < c.Clients; id++ {
			n := per
			if id < extra {
				n++
			}
			c.Env.Go(fmt.Sprintf("c%d", id), func(p *sim.Proc) { c.client(p, lp, id, n) })
		}
	}
	if c.Setup == nil && c.Clients > 0 {
		spawn()
	} else {
		c.Env.Go("setup", func(p *sim.Proc) {
			if c.Setup != nil {
				if lp.err = c.Setup(p); lp.err != nil {
					return
				}
			}
			if c.Clients == 0 {
				c.client(p, lp, 0, c.Ops)
				return
			}
			spawn()
		})
	}
	c.Env.Run()
	return lp, lp.err
}

// On runs every op on p, the caller's proc, with no setup, and returns
// at the last op's ack: for a table that times several loops in turn on
// one proc.
func (c Closed) On(p *sim.Proc) (*Loop, error) {
	lp := &Loop{Lat: &histo.H{}}
	c.client(p, lp, 0, c.Ops)
	return lp, lp.err
}

// client runs client id's n ops back to back on p.
func (c Closed) client(p *sim.Proc, lp *Loop, id, n int) {
	for i := 0; i < n && lp.err == nil; i++ {
		start := c.Env.Now()
		lp.win.issue(start)
		err := c.Op(p, id, i)
		if err == nil {
			lp.win.ack(c.Env.Now())
			lp.Lat.Observe(sim.Duration(c.Env.Now() - start))
			if c.Acked != nil {
				err = c.Acked(p, lp, id)
			}
		}
		if err != nil && lp.err == nil {
			lp.err = err
		}
	}
}

// must is Run for the tables, whose loops do not fail.
func (c Closed) must() *Loop {
	lp, err := c.Run()
	if err != nil {
		panic(err)
	}
	return lp
}

// opWindow is what a rate divides by: the span from the first op
// issued to the last op acknowledged. An environment's clock after
// Run() is the instant it went idle, which can be long after the last
// op returned (a write buffer's drain, an erase), so no rate divides
// by it.
type opWindow struct {
	first, last sim.Time
	started     bool
}

// issue records an op issued at now.
func (w *opWindow) issue(now sim.Time) {
	if !w.started {
		w.first, w.started = now, true
	}
}

// ack records an op acknowledged at now.
func (w *opWindow) ack(now sim.Time) { w.last = max(w.last, now) }

// span is the window's length.
func (w *opWindow) span() sim.Duration { return sim.Duration(w.last - w.first) }

// rate is n per second of the window.
func (w *opWindow) rate(n float64) float64 { return n / w.span().Seconds() }
