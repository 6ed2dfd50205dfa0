// Package arena carves many small, long-lived byte slices out of a few
// large allocations. It has two users: the host-side copies a log keeps
// of its records, where one heap object per record would dominate a
// run's allocations, and the flash array's page buffers (internal/nand),
// where one heap object per first-programmed page would.
//
// An Arena is append-only. It never hands out a byte twice and never
// writes a byte after handing it out, so a carved slice stays valid, and
// unchanged by the arena, for as long as anything references it; a
// chunk is garbage once nothing does. The zero value is ready to use and
// holds no memory until the first Alloc.
package arena

// chunkBytes is the size of one backing allocation: hundreds of
// fleet-sized records per heap object, and at most one partly used chunk
// per arena.
const chunkBytes = 64 << 10

// Arena is an append-only byte allocator. It is not safe for concurrent
// use; slices it has handed out may be read from anywhere.
type Arena struct {
	chunk []byte // the current chunk: carved up to len, free up to cap
}

// Alloc returns a zero-length slice with capacity n carved from the
// arena. Appending beyond n reallocates instead of spilling into the
// next carve.
func (a *Arena) Alloc(n int) []byte {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, max(chunkBytes, n))
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start : start+n]
}

// Copy returns a copy of b carved from the arena.
func (a *Arena) Copy(b []byte) []byte { return append(a.Alloc(len(b)), b...) }
