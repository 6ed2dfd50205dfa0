package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"twobssd/internal/sim"
)

// readFile returns the media bytes of one ring file.
func (r *rig) readFile(t testing.TB, name string) []byte {
	t.Helper()
	f, err := r.fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	buf := make([]byte, f.Capacity())
	r.env.Go("read", func(p *sim.Proc) {
		if err := f.ReadAt(p, 0, buf); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
	})
	r.env.Run()
	return buf
}

// staleGenerationImage cycles the standard ring past its first lap
// (checkpointing so slots free up) and returns the active segment's
// file: a live generation's records followed by the stale bytes of the
// generation that held the slot a lap earlier.
func staleGenerationImage(t testing.TB) (img []byte, seq int64) {
	r := newRig()
	sl, err := Open(r.env, segCfg(r, Sync))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.env.Go("write", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			lsn, err := appendCommit(p, sl, segPayload(i))
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if i%10 == 9 {
				if err := sl.Checkpoint(p, lsn); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
	})
	r.env.Run()
	_, seq = sl.Segments()
	if seq < 4 {
		t.Fatalf("active segment %d: the ring never lapped", seq)
	}
	img = r.readFile(t, sl.file(seq).Name())
	r.env.Shutdown()
	return img, seq
}

// FuzzScan feeds arbitrary segment-file bytes to the decoders that read
// media after a crash — the record scanner and the ring-slot probe —
// seeded with the torn-boundary, stale-generation and bad-CRC images
// the recovery tests build. Whatever the bytes, they must not panic,
// must never read past the file or across an inner-segment boundary,
// and every record they yield must re-verify (stamp, bound, CRC).
func FuzzScan(f *testing.F) {
	const innerSel = 7 // 64<<7 = the 8 KB inner segment of segCfg
	for _, tc := range boundaryMangles {
		r, payloads, last := buildBoundaryTail(f)
		f.Add(r.readFile(f, "seg.0"), uint8(0), uint8(innerSel)) // sealed, intact
		mangleBoundaryTail(f, r, last, len(payloads[len(payloads)-1]), tc.mangle)
		f.Add(r.readFile(f, "seg.1"), uint8(1), uint8(innerSel)) // bad CRC / overrun at the boundary
		r.env.Shutdown()
	}
	stale, seq := staleGenerationImage(f)
	f.Add(stale, uint8(seq), uint8(innerSel))
	f.Add([]byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, img []byte, seq, innerSel uint8) {
		fcap := int64(len(img))
		inner := int64(64) << (innerSel % 10)
		base := int64(seq) * fcap
		read := func(off int64, b []byte) error {
			end := off + int64(len(b))
			if off < 0 || end > fcap {
				t.Fatalf("read [%d,%d) outside the %d-byte file", off, end, fcap)
			}
			if len(b) > 0 && off/inner != (end-1)/inner {
				t.Fatalf("read [%d,%d) crosses an inner-segment boundary (inner %d)", off, end, inner)
			}
			copy(b, img[off:])
			return nil
		}
		prev := int64(0)
		end, how, err := scan(read, fcap, inner, base, func(start int64, payload []byte) error {
			if start < prev {
				t.Fatalf("record at %d yielded after position %d", start, prev)
			}
			prev = start + headerBytes + int64(len(payload))
			hdr := img[start : start+headerBytes]
			if n := int64(binary.LittleEndian.Uint32(hdr)); n != int64(len(payload)) || n == 0 {
				t.Fatalf("record at %d: yielded %d bytes, header says %d", start, len(payload), n)
			}
			if stamp := int64(binary.LittleEndian.Uint64(hdr[8:])); stamp != base+start {
				t.Fatalf("record at %d: stamp %d, want %d", start, stamp, base+start)
			}
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) ||
				string(payload) != string(img[start+headerBytes:prev]) {
				t.Fatalf("record at %d does not re-verify", start)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if end < prev || end > fcap || (how == scanReached && end+headerBytes <= fcap) {
			t.Fatalf("scan ended at %d (%d) after records up to %d in a %d-byte file", end, how, prev, fcap)
		}

		if fcap < headerBytes+segHdrBytes {
			return // no ring file is smaller than a page
		}
		const ring = 4
		got, err := probeSlot(func(off int64, b []byte) error {
			copy(b, img[off:off+int64(len(b))])
			return nil
		}, int(seq%ring), ring, fcap)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		if got >= 0 && (got%ring != int64(seq%ring) ||
			int64(binary.LittleEndian.Uint64(img[8:])) != got*fcap ||
			int64(binary.LittleEndian.Uint64(img[headerBytes+8:])) != got) {
			t.Fatalf("probe accepted sequence %d from a header that does not name it", got)
		}
	})
}
