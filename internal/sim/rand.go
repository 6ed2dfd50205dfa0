package sim

// Rand is a splitmix64 stream (Steele et al.): the tiny, seeded PRNG
// behind every simulated decision drawn at random — fault verdicts,
// crash-point jitter, traffic arrivals, the fuzzer's op streams. Each
// user keeps its own instances, so enabling one stream never shifts
// another's sequence, and a seed fixes every draw.
type Rand struct{ s uint64 }

// NewRand seeds a stream.
func NewRand(seed uint64) Rand { return Rand{s: seed} }

// Uint64 returns the next raw draw.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return Mix64(r.s)
}

// Float returns a uniform float64 in [0, 1).
func (r *Rand) Float() float64 {
	return float64(r.Uint64()>>11) / float64(uint64(1)<<53)
}

// Intn returns a uniform draw in [0, n) (modulo-reduced).
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Mix64 is splitmix64's output function: a bijective 64-bit mixer, also
// usable on its own to whiten a hash.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
