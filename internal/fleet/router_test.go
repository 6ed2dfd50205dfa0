package fleet

import (
	"fmt"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%03d", i)
	}
	return out
}

// Placement must be a pure function of (n, idx, name, total).
func TestRouterDeterministicPlacement(t *testing.T) {
	t.Run("hash", func(t *testing.T) {
		a, b := NewRouter(Hash, 5), NewRouter(Hash, 5)
		for idx, name := range names(64) {
			p1 := a.Place(idx, name, 64)
			p2 := b.Place(idx, name, 64)
			if p1 != p2 {
				t.Fatalf("%s: %+v != %+v", name, p1, p2)
			}
			if p1.Primary < 0 || p1.Primary >= 5 || p1.Follower < 0 || p1.Follower >= 5 {
				t.Fatalf("%s: out-of-range placement %+v", name, p1)
			}
			if p1.Primary == p1.Follower {
				t.Fatalf("%s: follower on the primary device: %+v", name, p1)
			}
		}
	})
}

// Every device should get some primaries.
func TestRouterSpreadsLoad(t *testing.T) {
	const devs, tenants = 4, 200
	counts := make([]int, devs)
	r := NewRouter(Hash, devs)
	for idx, name := range names(tenants) {
		counts[r.Place(idx, name, tenants).Primary]++
	}
	for d, c := range counts {
		if c == 0 {
			t.Fatalf("device %d received no tenants: %v", d, counts)
		}
		if c > tenants/2 {
			t.Fatalf("device %d hogs placement: %v", d, counts)
		}
	}
}

// Rendezvous hashing must be rebalance-stable: growing the fleet from
// n to n+1 devices may only move tenants whose new best device is the
// added one — roughly 1/(n+1) of them — and never shuffles tenants
// between pre-existing devices.
func TestHashRebalanceStability(t *testing.T) {
	const tenants = 500
	old := NewRouter(Hash, 6)
	grown := NewRouter(Hash, 7)
	moved := 0
	for idx, name := range names(tenants) {
		p0 := old.Place(idx, name, tenants)
		p1 := grown.Place(idx, name, tenants)
		if p0.Primary != p1.Primary {
			moved++
			if p1.Primary != 6 {
				t.Fatalf("%s moved %d→%d, not to the new device", name, p0.Primary, p1.Primary)
			}
		}
	}
	// Expect ~tenants/7 ≈ 71 moves; allow generous slack either way.
	if moved == 0 || moved > tenants/3 {
		t.Fatalf("moved %d of %d tenants on grow 6→7 (want ~%d)", moved, tenants, tenants/7)
	}
}
