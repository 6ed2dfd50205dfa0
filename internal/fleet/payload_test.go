package fleet

import (
	"fmt"
	"strings"
	"testing"
)

// refPayload is the record format appendPayload must reproduce byte for
// byte: a fmt head plus 'x' fill.
func refPayload(name string, seq int, key int64, size int) string {
	head := fmt.Sprintf("%s|%06d|%08x|", name, seq, uint32(key))
	if size <= len(head) {
		return head
	}
	return head + strings.Repeat("x", size-len(head))
}

var payloadCases = []struct {
	name string
	seq  int
	key  int64
	size int
}{
	{"t0", 0, 0, 96},
	{"t0", 7, 0xabc, 96},
	{"t7", 999_999, 1, 96},
	{"t7", 1_000_000, 1, 96},
	{"tenant-long", 123_456_789, 42, 256},
	{"t1", 5, 0x8000_0000, 96},               // bit 31 set
	{"t1", 5, -1, 96},                        // all 32 low bits set
	{"t1", 5, 0x1_2345_6789, 96},             // high bits dropped
	{"t2", 12, 0xfeed, 10},                   // size below the head
	{"t2", 12, 0xfeed, 0},                    // no size at all
	{"t3", 3, 3, len("t3|000003|00000003|")}, // head exactly fills size
	{"t3", 3, 3, len("t3|000003|00000003|") + 1},
	{"", 0, 0, 200}, // no name
	{"t4", 1 << 40, 0, 1000},
}

func TestAppendPayloadMatchesReference(t *testing.T) {
	for _, c := range payloadCases {
		want := refPayload(c.name, c.seq, c.key, c.size)
		if got := string(appendPayload(nil, c.name, c.seq, c.key, c.size)); got != want {
			t.Errorf("appendPayload(%q, %d, %#x, %d)\n got %q\nwant %q", c.name, c.seq, c.key, c.size, got, want)
		}
		// Appending keeps whatever dst already holds.
		if got := string(appendPayload([]byte("pre"), c.name, c.seq, c.key, c.size)); got != "pre"+want {
			t.Errorf("appendPayload after a prefix = %q, want %q", got, "pre"+want)
		}
		if n := payloadCap(c.name, c.size); n < len(want) {
			t.Errorf("payloadCap(%q, %d) = %d, below the record's %d bytes", c.name, c.size, n, len(want))
		}
	}
}

func TestPayloadSeq(t *testing.T) {
	for _, c := range payloadCases {
		seq, ok := payloadSeq([]byte(refPayload(c.name, c.seq, c.key, c.size)))
		if !ok || seq != c.seq {
			t.Errorf("payloadSeq(record %q seq %d) = %d, %v", c.name, c.seq, seq, ok)
		}
	}
	for _, bad := range []string{
		"",
		"t0",                            // no '|'
		"t0|000001",                     // no second '|'
		"t0||00000001|",                 // empty field
		"t0|00a001|00000001|",           // non-digit
		"t0|-00001|00000001|",           // a sign is not a digit
		"t0| 00001|00000001|",           // nor is a space
		"t0|1234567890123456789|0|xxxx", // too long for an int
	} {
		if seq, ok := payloadSeq([]byte(bad)); ok {
			t.Errorf("payloadSeq(%q) = %d, accepted", bad, seq)
		}
	}
}

func TestPayloadCodecDoesNotAllocate(t *testing.T) {
	rec := appendPayload(nil, "tenant", 123_456, 0xbeef, 96)
	buf := make([]byte, 0, payloadCap("tenant", 96))
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		seq, _ := payloadSeq(rec)
		sink += seq
	}); n != 0 {
		t.Errorf("payloadSeq: %.1f allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendPayload(buf[:0], "tenant", 123_456, 0xbeef, 96)
	}); n != 0 {
		t.Errorf("appendPayload into a buffer with room: %.1f allocs per call, want 0", n)
	}
	_ = sink
}
