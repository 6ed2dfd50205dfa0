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
