package ycsb

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"twobssd/internal/sim"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	z := NewZipfian(1000, 0.99, 42)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be far more popular than rank 500.
	if counts[0] < 10*counts[500]+1 {
		t.Fatalf("no skew: c0=%d c500=%d", counts[0], counts[500])
	}
	// Head mass: top-10 of a 0.99-zipfian carries a large share.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.15 {
		t.Fatalf("head mass = %.3f, want > 0.15", frac)
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a, b := NewZipfian(100, 0.99, 7), NewZipfian(100, 0.99, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestWorkloadAMix(t *testing.T) {
	g := NewGenerator(WorkloadA(1000, 64, 1))
	reads, updates := 0, 0
	for i := 0; i < 20000; i++ {
		switch g.Next().Kind {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
		default:
			t.Fatal("unexpected op kind in workload A")
		}
	}
	frac := float64(reads) / 20000
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("read fraction = %.3f, want ~0.5", frac)
	}
	_ = updates
}

func TestPayloadSize(t *testing.T) {
	g := NewGenerator(WorkloadA(100, 256, 1))
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Kind == OpUpdate && len(op.Value) != 256 {
			t.Fatalf("payload = %d", len(op.Value))
		}
	}
}

func TestKeysScrambledAndStable(t *testing.T) {
	g := NewGenerator(WorkloadA(100, 64, 1))
	// Key reuses an internal buffer, so snapshot before the next call.
	k1 := string(g.Key(1))
	k2 := string(g.Key(2))
	if k1 == k2 {
		t.Fatal("key collision")
	}
	if string(g.Key(1)) != k1 {
		t.Fatal("keys not stable")
	}
}

// memKV is an in-memory KV charging fixed costs, for runner tests.
type memKV struct {
	m map[string][]byte
}

func (k *memKV) Read(p *sim.Proc, key []byte) error {
	p.Sleep(1 * sim.Microsecond)
	_ = k.m[string(key)]
	return nil
}

func (k *memKV) Update(p *sim.Proc, key, value []byte) error {
	p.Sleep(2 * sim.Microsecond)
	k.m[string(key)] = value
	return nil
}

func TestRunAggregates(t *testing.T) {
	env := sim.NewEnv()
	kv := &memKV{m: make(map[string][]byte)}
	res, err := Run(env, kv, WorkloadA(100, 64, 9), 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Reads == 0 || res.Updates == 0 {
		t.Fatalf("mix missing: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	// 4 clients of 250 ops at 1-2us each, concurrent: elapsed must be
	// well under the serial sum.
	if res.Elapsed > 700*sim.Microsecond {
		t.Fatalf("elapsed %v suggests no concurrency", res.Elapsed)
	}
}

// refZipfian is the Zipfian formula with nothing hoisted or cached:
// every draw evaluates 0.5^theta and every generator sums its own zeta.
// Next must match it draw for draw.
type refZipfian struct {
	n                        int64
	theta, alpha, zetan, eta float64
	rng                      *rand.Rand
}

func refZeta(n int64, theta float64) float64 {
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func newRefZipfian(n int64, theta float64, src rand.Source) *refZipfian {
	z := &refZipfian{n: n, theta: theta, rng: rand.New(src)}
	z.zetan = refZeta(n, theta)
	zeta2 := refZeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *refZipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

func TestZipfianMatchesReference(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, theta := range []float64{0.5, 0.99, 1.5} {
		for _, n := range []int64{2, 1000, 16384} {
			const seed = 12345
			z, ref := NewZipfian(n, theta, seed), newRefZipfian(n, theta, rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if got, want := z.Next(), ref.Next(); got != want {
					t.Fatalf("theta %v n %d draw %d: Next = %d, reference %d", theta, n, i, got, want)
				}
			}
		}
	}
}

func TestZipfianThetaOnePanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "singularity") {
			t.Fatalf("NewZipfian(theta 1) recovered %q, want a panic naming the singularity", msg)
		}
	}()
	NewZipfian(1000, 1, 1)
}

// maxSource makes rand.Float64 return its largest value, 1 - 2^-53.
type maxSource struct{}

func (maxSource) Int63() int64 { return 1<<63 - 1025 }
func (maxSource) Seed(int64)   {}

func TestZipfianLargestDrawStaysInRange(t *testing.T) {
	edge := false
	for _, theta := range []float64{0.5, 0.99, 1.5} {
		for _, n := range []int64{3, 1000, 16384} {
			z := NewZipfian(n, theta, 1)
			z.rng = rand.New(maxSource{})
			if v := z.Next(); v < 0 || v >= n {
				t.Errorf("theta %v n %d: largest draw = %d, outside [0, %d)", theta, n, v, n)
			}
			if newRefZipfian(n, theta, maxSource{}).Next() == n {
				edge = true
			}
		}
	}
	if !edge {
		t.Fatal("the unclamped formula never reached n: the test no longer covers the rounding edge")
	}
}

func TestZetaMemoConcurrent(t *testing.T) {
	// Keys no other test uses, so the goroutines race to fill them.
	type key struct {
		n     int64
		theta float64
	}
	shared := []key{{4099, 0.99}, {4099, 0.7}, {513, 1.3}}
	want := func(k key) [4]float64 {
		zetan, zeta2 := refZeta(k.n, k.theta), refZeta(2, k.theta)
		return [4]float64{
			zetan, 1.0 / (1.0 - k.theta),
			(1 - math.Pow(2.0/float64(k.n), 1-k.theta)) / (1 - zeta2/zetan),
			1.0 + math.Pow(0.5, k.theta),
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := append([]key{{int64(3001 + g), 0.99}}, shared...)
			for round := 0; round < 3; round++ {
				for _, k := range keys {
					z := NewZipfian(k.n, k.theta, int64(g))
					if got := [4]float64{z.zetan, z.alpha, z.eta, z.one}; got != want(k) {
						t.Errorf("goroutine %d %+v: constants %v, want %v", g, k, got, want(k))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkKey int64

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(1<<14, 0.99, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkKey += z.Next()
	}
}
