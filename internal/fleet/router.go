// Shard routing: deterministic placement of tenant WALs and engine
// volumes across the fleet's devices.
package fleet

import (
	"fmt"
	"hash/fnv"

	"twobssd/internal/sim"
)

// Policy selects the placement function.
type Policy int

const (
	// Hash is rendezvous (highest-random-weight) hashing over the
	// tenant name: every tenant scores every device and picks the two
	// best. Adding or removing a device only moves the tenants whose
	// winning device changed — about 1/N of them — which is the
	// rebalance-stability property the tests pin down.
	Hash Policy = iota
	// Range carves the ordered tenant index space into contiguous
	// per-device ranges: tenant i of T goes to device i*N/T. Trivially
	// balanced and sequential-scan friendly, but a device-count change
	// reshuffles most of the map.
	Range
)

func (p Policy) String() string {
	switch p {
	case Hash:
		return "hash"
	case Range:
		return "range"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Placement is one tenant's device assignment: the primary serves the
// tenant's WAL and volume; the follower hosts the replicated redo log.
type Placement struct {
	Primary  int
	Follower int
}

// Router places tenants on a fleet of n devices.
type Router struct {
	policy Policy
	n      int
}

// NewRouter builds a router over n devices (n >= 1; replication needs
// n >= 2 or follower falls back to the primary's device).
func NewRouter(policy Policy, n int) *Router {
	if n < 1 {
		panic("fleet: router needs at least one device")
	}
	return &Router{policy: policy, n: n}
}

// Devices returns the device count the router was built over.
func (r *Router) Devices() int { return r.n }

// Policy returns the placement policy.
func (r *Router) Policy() Policy { return r.policy }

// score is the rendezvous weight of (tenant, device): an FNV-1a hash
// of the tenant name whitened per device through splitmix64's mixer.
func score(tenant string, device int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return sim.Mix64(h.Sum64() ^ (uint64(device)+1)*0x9E3779B97F4A7C15)
}

// Place assigns tenant idx (of total tenants) with the given name.
// Hash policy uses only the name; Range uses only (idx, total). The
// follower is always a distinct device when the fleet has one.
func (r *Router) Place(idx int, name string, total int) Placement {
	switch r.policy {
	case Range:
		if total < 1 {
			total = 1
		}
		p := idx * r.n / total
		if p >= r.n {
			p = r.n - 1
		}
		return Placement{Primary: p, Follower: (p + 1) % r.n}
	default:
		best, second := 0, 0
		var bestS, secondS uint64
		for d := 0; d < r.n; d++ {
			s := score(name, d)
			switch {
			case d == 0 || s > bestS:
				second, secondS = best, bestS
				best, bestS = d, s
			case d == 1 || s > secondS:
				second, secondS = d, s
			}
		}
		if r.n == 1 {
			second = best
		}
		return Placement{Primary: best, Follower: second}
	}
}
