// Package ycsb generates Yahoo! Cloud Serving Benchmark workloads.
// Workload A (50 % reads / 50 % updates, zipfian key popularity) is
// what the paper runs against RocksDB and Redis (Section V-C), with
// the payload size as the swept parameter.
package ycsb

import (
	"math"
	"math/rand"
	"sync"

	"twobssd/internal/sim"
)

// Zipfian draws integers in [0, n) with the YCSB zipfian distribution
// (Gray et al.'s rejection-free algorithm, as in the YCSB core).
type Zipfian struct {
	n     int64
	alpha float64
	zetan float64
	eta   float64
	one   float64 // 1 + 0.5^theta: a draw below it (and not below 1) is key 1
	rng   *rand.Rand
}

// NewZipfian builds a generator over [0, n) with skew theta (YCSB
// default 0.99). Theta 1 is the distribution's singularity (alpha =
// 1/(1-theta) is infinite) and panics.
func NewZipfian(n int64, theta float64, seed int64) *Zipfian {
	if n <= 0 {
		panic("ycsb: zipfian over empty range")
	}
	if theta == 1 {
		panic("ycsb: zipfian theta 1 is the singularity of alpha = 1/(1-theta)")
	}
	z := &Zipfian{n: n, rng: rand.New(rand.NewSource(seed))}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.one = 1.0 + math.Pow(0.5, theta)
	return z
}

type zetaKey struct {
	n     int64
	theta float64
}

// zetas memoizes zeta per (n, theta): every tenant and client of a run
// shares one keyspace and skew, and the sum is n Pow calls. Experiments
// run side by side (bench2b -j), hence the sync.Map; two that miss at
// once both compute the same value.
var zetas sync.Map // zetaKey → float64

// zeta returns sum_{i=1..n} 1/i^theta, summed in index order.
func zeta(n int64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetas.Load(k); ok {
		return v.(float64)
	}
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetas.Store(k, sum)
	return sum
}

// Next draws the next value.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.one {
		return 1
	}
	// u close to 1 can round the product up to n.
	return min(int64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
}

// OpKind is a workload operation type.
type OpKind int

// Workload operations.
const (
	OpRead OpKind = iota
	OpUpdate
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte
}

// Config shapes a workload.
type Config struct {
	Records      int64   // keyspace size
	ReadFraction float64 // e.g. 0.5 for workload A
	PayloadBytes int     // value size per update/insert
	Theta        float64 // zipfian skew (default 0.99)
	Seed         int64
}

// WorkloadA returns the paper's configuration: 50 % reads, 50 %
// updates, zipfian, with the given payload size.
func WorkloadA(records int64, payload int, seed int64) Config {
	return Config{
		Records:      records,
		ReadFraction: 0.5,
		PayloadBytes: payload,
		Theta:        0.99,
		Seed:         seed,
	}
}

// Generator produces a deterministic operation stream.
type Generator struct {
	cfg  Config
	zipf *Zipfian
	rng  *rand.Rand
	val  []byte
	key  [20]byte // "user" + 16 hex digits, reused across calls
}

// NewGenerator builds a generator from cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Theta <= 0 {
		cfg.Theta = 0.99
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 1024
	}
	g := &Generator{
		cfg:  cfg,
		zipf: NewZipfian(cfg.Records, cfg.Theta, cfg.Seed),
		rng:  rand.New(rand.NewSource(cfg.Seed + 1)),
		val:  make([]byte, cfg.PayloadBytes),
	}
	for i := range g.val {
		g.val[i] = byte('a' + i%26)
	}
	return g
}

// Key formats the ith record key (FNV-scrambled like YCSB so zipfian
// popularity is spread over the keyspace). The returned slice reuses a
// buffer owned by the generator: it is valid only until the next Key or
// Next call, and stores that retain keys must copy (they all do).
func (g *Generator) Key(i int64) []byte {
	h := uint64(14695981039346656037)
	for b := 0; b < 8; b++ {
		h ^= uint64(i >> (8 * b) & 0xFF)
		h *= 1099511628211
	}
	const hex = "0123456789abcdef"
	copy(g.key[:4], "user")
	for j := 0; j < 16; j++ {
		g.key[4+j] = hex[(h>>uint(60-4*j))&0xF]
	}
	return g.key[:]
}

// Next draws one operation.
func (g *Generator) Next() Op {
	i := g.zipf.Next()
	key := g.Key(i)
	if g.rng.Float64() < g.cfg.ReadFraction {
		return Op{Kind: OpRead, Key: key}
	}
	return Op{Kind: OpUpdate, Key: key, Value: g.val}
}

// KV is the store interface a client drives.
type KV interface {
	Read(p *sim.Proc, key []byte) error
	Update(p *sim.Proc, key, value []byte) error
}

// Load preloads the keyspace (every key once).
func (g *Generator) Load(p *sim.Proc, kv KV) error {
	for i := int64(0); i < g.cfg.Records; i++ {
		if err := kv.Update(p, g.Key(i), g.val); err != nil {
			return err
		}
	}
	return nil
}

// NewClient builds the generator of client c of a run whose clients
// share cfg: each draws its own deterministic stream.
func NewClient(cfg Config, c int) *Generator {
	cfg.Seed += int64(c) * 7919
	return NewGenerator(cfg)
}

// Step draws one operation and runs it against kv.
func (g *Generator) Step(p *sim.Proc, kv KV) error {
	op := g.Next()
	if op.Kind == OpRead {
		return kv.Read(p, op.Key)
	}
	return kv.Update(p, op.Key, op.Value)
}
