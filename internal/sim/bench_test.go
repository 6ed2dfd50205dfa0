package sim

import "testing"

// BenchmarkSelfSleep measures the self-dispatch fast path: one process
// sleeping in a loop resumes itself without any coroutine switch. This
// is the dominant pattern in the QD-1 latency sweeps (Fig 7).
func BenchmarkSelfSleep(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	e.Go("loop", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkHandoffPingPong measures the handoff between processes: two
// processes alternating through a capacity-1 resource, one switch from
// one coroutine to the other (through the dispatch loop) per Use.
func BenchmarkHandoffPingPong(b *testing.B) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	b.ReportAllocs()
	for w := 0; w < 2; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Use(p, 10)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkManyProcsHeap measures heap pressure: 64 processes with
// staggered sleeps keep the 4-ary heap populated.
func BenchmarkManyProcsHeap(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	per := b.N/64 + 1
	for w := 0; w < 64; w++ {
		w := w
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(Duration(1 + (w*7+i)%97))
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSignalFanout measures broadcast wakeups: one firer, 32
// waiters re-parking each round (ready-ring throughput).
func BenchmarkSignalFanout(b *testing.B) {
	e := NewEnv()
	s := e.NewSignal("s")
	rounds := b.N/32 + 1
	b.ReportAllocs()
	for w := 0; w < 32; w++ {
		e.GoDaemon("waiter", func(p *Proc) {
			for {
				s.Wait(p)
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(10)
			s.Fire()
		}
	})
	b.ResetTimer()
	e.Run()
}

// herdTurn holds when the turn counter has reached arg.
type herdTurn struct{ n int64 }

func (c *herdTurn) Holds(t int64) bool { return c.n == t }

// BenchmarkSignalHerd measures a herd: 32 waiters each waiting for its
// own turn on one signal, one Fire per turn (an op). Under WaitUntil the
// kernel re-checks the 31 others in place; the recheck-loop variant is
// the `for !cond { s.Wait(p) }` idiom, which resumes all 32 per Fire.
func BenchmarkSignalHerd(b *testing.B) {
	for _, until := range []bool{false, true} {
		name := "recheck-loop"
		if until {
			name = "WaitUntil"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEnv()
			defer e.Shutdown()
			s := e.NewSignal("s")
			c := &herdTurn{n: -1}
			for w := int64(0); w < 32; w++ {
				e.GoDaemon("waiter", func(p *Proc) {
					for t := w; ; t += 32 {
						if until {
							s.WaitUntil(p, c, t)
						} else {
							for !c.Holds(t) {
								s.Wait(p)
							}
						}
					}
				})
			}
			e.Go("firer", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(10)
					c.n++
					s.Fire()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
