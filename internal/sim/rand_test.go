package sim

import "testing"

// Rand is splitmix64: seed 0 yields the reference sequence, and Mix64
// is its output function.
func TestRandIsSplitmix64(t *testing.T) {
	r := NewRand(0)
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if got := Mix64(0x9E3779B97F4A7C15); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix64 = %#x", got)
	}
	for i := 0; i < 1000; i++ {
		if f := r.Float(); f < 0 || f >= 1 {
			t.Fatalf("Float = %v", f)
		}
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) = %d", n)
		}
	}
}
