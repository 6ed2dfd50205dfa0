// Package traffic is a seeded, open-loop traffic model for fleet-scale
// experiments: arrival processes (Poisson, diurnal, bursty, saturation
// ramps) paired with Zipfian key skew. Everything is derived from a
// seed and virtual time only — no wall clock, no global rand — so a
// generated schedule is byte-identical across runs, -j levels and
// partition shards.
//
// "Open loop" means arrival times are drawn independently of service
// completions: a saturated tenant keeps receiving arrivals and its
// backlog (and completion latency) grows, which is what distinguishes
// a real overload from a closed-loop benchmark that politely waits.
package traffic

import (
	"math"

	"twobssd/internal/sim"
	"twobssd/internal/ycsb"
)

// expGap draws an exponential interarrival gap for a rate in ops/sec
// of virtual time. Rates at or below zero yield a 1s fallback gap so a
// misconfigured process stalls visibly instead of dividing by zero.
func expGap(r *sim.Rand, ratePerSec float64) sim.Duration {
	if ratePerSec <= 0 {
		return sim.Second
	}
	u := r.Float()
	for u == 0 {
		u = r.Float()
	}
	gap := -math.Log(u) / ratePerSec * float64(sim.Second)
	if gap < 1 {
		gap = 1
	}
	return sim.Duration(gap)
}

// Arrival is an open-loop arrival process: given the stream RNG and
// the current virtual time it returns the gap to the next arrival.
type Arrival interface {
	Gap(r *sim.Rand, now sim.Time) sim.Duration
}

// Poisson is a stationary Poisson process.
type Poisson struct{ RatePerSec float64 }

func (a Poisson) Gap(r *sim.Rand, now sim.Time) sim.Duration {
	return expGap(r, a.RatePerSec)
}

// Diurnal modulates a Poisson process sinusoidally over virtual time:
// rate(t) = Base * (1 + Amplitude * sin(2πt/Period)). With Amplitude
// in [0,1) the rate stays positive; Period is the full day analogue
// (compressed to whatever the experiment can afford).
type Diurnal struct {
	BasePerSec float64
	Amplitude  float64
	Period     sim.Duration
}

func (a Diurnal) Gap(r *sim.Rand, now sim.Time) sim.Duration {
	period := a.Period
	if period <= 0 {
		period = sim.Second
	}
	phase := 2 * math.Pi * float64(sim.Time(now)%sim.Time(period)) / float64(period)
	rate := a.BasePerSec * (1 + a.Amplitude*math.Sin(phase))
	return expGap(r, rate)
}

// Bursty is an on/off modulated Poisson process: within every
// BurstEvery window the first BurstLen is "on" at BurstPerSec, the
// remainder is "off" at BasePerSec. The phase is a pure function of
// virtual time, so bursts land at the same instants in every run.
type Bursty struct {
	BasePerSec  float64
	BurstPerSec float64
	BurstEvery  sim.Duration
	BurstLen    sim.Duration
}

func (a Bursty) Gap(r *sim.Rand, now sim.Time) sim.Duration {
	every := a.BurstEvery
	if every <= 0 {
		every = 100 * sim.Millisecond
	}
	rate := a.BasePerSec
	if sim.Duration(sim.Time(now)%sim.Time(every)) < a.BurstLen {
		rate = a.BurstPerSec
	}
	return expGap(r, rate)
}

// Ramp grows the rate linearly from StartPerSec to EndPerSec across
// Over, then holds — the saturation scenario: the ramp crosses the
// service capacity at some point and the open-loop backlog takes off.
type Ramp struct {
	StartPerSec float64
	EndPerSec   float64
	Over        sim.Duration
}

func (a Ramp) Gap(r *sim.Rand, now sim.Time) sim.Duration {
	rate := a.EndPerSec
	if a.Over > 0 && sim.Duration(now) < a.Over {
		f := float64(now) / float64(a.Over)
		rate = a.StartPerSec + (a.EndPerSec-a.StartPerSec)*f
	}
	return expGap(r, rate)
}

// Op is one generated arrival.
type Op struct {
	Seq  int      // 0-based per-tenant sequence number
	At   sim.Time // open-loop arrival instant
	Key  int64    // Zipfian-skewed key in [0, Keys)
	Read bool     // read op (ReadFraction of the stream)
}

// Spec describes one tenant's workload. The zero value is not usable;
// Ops, Keys and Arrival must be set.
type Spec struct {
	Tenant string
	Seed   uint64

	Arrival      Arrival
	Ops          int     // arrivals to generate
	Keys         int64   // keyspace size
	Theta        float64 // Zipfian skew (0 = uniform; 0.99 = YCSB default)
	ReadFraction float64 // fraction of ops that read instead of append
	PayloadBytes int     // log-record payload size per write

	// Retry policy under admission rejection: up to MaxRetries
	// re-attempts with exponential backoff starting at RetryBackoff
	// (plus deterministic per-attempt jitter). Zero MaxRetries drops
	// rejected ops immediately — the ingredients of a retry storm.
	MaxRetries   int
	RetryBackoff sim.Duration
}

// Backoff returns the deterministic backoff before retry `attempt`
// (1-based) of op `seq`: exponential with ±25% jitter derived from the
// spec seed, so two runs retry at identical virtual instants.
func (s Spec) Backoff(seq, attempt int) sim.Duration {
	base := s.RetryBackoff
	if base <= 0 {
		base = 50 * sim.Microsecond
	}
	d := base << uint(attempt-1)
	r := sim.NewRand(s.Seed ^ 0xB0FF<<32 ^ uint64(seq)<<8 ^ uint64(attempt))
	jitter := 0.75 + 0.5*r.Float()
	return sim.Duration(float64(d) * jitter)
}

// Gen streams a Spec's ops in arrival order.
type Gen struct {
	spec Spec
	rng  sim.Rand
	zipf *ycsb.Zipfian
	now  sim.Time
	seq  int
}

// Gen builds the generator for the spec.
func (s Spec) Gen() *Gen {
	theta := s.Theta
	var z *ycsb.Zipfian
	if theta > 0 {
		z = ycsb.NewZipfian(s.Keys, theta, int64(s.Seed^0x21F))
	}
	return &Gen{spec: s, rng: sim.NewRand(s.Seed), zipf: z}
}

// Next returns the next op, or ok=false when Ops are exhausted.
func (g *Gen) Next() (Op, bool) {
	if g.seq >= g.spec.Ops {
		return Op{}, false
	}
	g.now += sim.Time(g.spec.Arrival.Gap(&g.rng, g.now))
	var key int64
	if g.zipf != nil {
		key = g.zipf.Next()
	} else if g.spec.Keys > 0 {
		key = int64(g.rng.Uint64() % uint64(g.spec.Keys))
	}
	read := g.rng.Float() < g.spec.ReadFraction
	op := Op{Seq: g.seq, At: g.now, Key: key, Read: read}
	g.seq++
	return op, true
}

// Schedule materializes the whole arrival schedule.
func (g *Gen) Schedule() []Op {
	ops := make([]Op, 0, g.spec.Ops)
	for {
		op, ok := g.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}
