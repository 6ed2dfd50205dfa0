package arena

import (
	"bytes"
	"testing"
)

// Carved slices never overlap, keep their bytes across later carves and
// chunk changes, and cannot be appended into a neighbour.
func TestCarvesAreDisjointAndStable(t *testing.T) {
	var a Arena
	var got [][]byte
	var want [][]byte
	for i := 0; i < 3*chunkBytes/100; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%199)
		got = append(got, a.Copy(rec))
		want = append(want, rec)
	}
	big := bytes.Repeat([]byte{0xEE}, 2*chunkBytes) // larger than a chunk
	got = append(got, a.Copy(big))
	want = append(want, big)
	_ = append(got[0], 0xFF) // must not overwrite got[1]
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("carve %d changed: len %d, want %d", i, len(got[i]), len(want[i]))
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("carve %d has cap %d past its %d bytes", i, cap(got[i]), len(got[i]))
		}
	}
}

// A carve makes a heap object only when it opens a new chunk.
func TestAllocAmortizesChunks(t *testing.T) {
	var a Arena
	a.Alloc(1)
	rec := make([]byte, 128)
	if n := testing.AllocsPerRun(400, func() { a.Copy(rec) }); n != 0 {
		t.Fatalf("%.2f allocations per 128-byte carve, want 0 (one chunk per %d carves)", n, chunkBytes/128)
	}
	// A carve bigger than a chunk leaves the current chunk's tail for
	// the next small carve.
	a.Alloc(2 * chunkBytes)
	if n := testing.AllocsPerRun(1, func() { a.Copy(rec) }); n != 0 {
		t.Fatalf("%.2f allocations for a carve after a big one, want 0", n)
	}
}
