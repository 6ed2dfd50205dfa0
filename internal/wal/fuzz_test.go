package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
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

// appendLaps commits n segPayload records to the standard ring — ten
// fill a segment file — checkpointing at every tenth so slots free up
// and the ring can lap.
func appendLaps(t testing.TB, p *sim.Proc, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := appendCommit(p, l, segPayload(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%10 == 9 {
			if err := l.Checkpoint(p, lsn); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
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
	r.env.Go("write", func(p *sim.Proc) { appendLaps(t, p, sl, 50) })
	r.env.Run()
	_, seq = sl.Segments()
	if seq < 4 {
		t.Fatalf("active segment %d: the ring never lapped", seq)
	}
	img = r.readFile(t, sl.file(seq).Name())
	r.env.Shutdown()
	return img, seq
}

// straddleImage is a 66-page segment file (one inner segment, base 0)
// packed with records so that one header straddles each of the byte
// offsets where a 1-, 2-, 3- and 64-page read-ahead run ends, and
// payloads cross every other page boundary.
func straddleImage() []byte {
	const ps = 4096
	img := make([]byte, 66*ps)
	pos := 0
	put := func(n int) {
		payload := bytes.Repeat([]byte{byte(pos/headerBytes) | 1}, n)
		encodeHeader(img[pos:], payload, int64(pos))
		copy(img[pos+headerBytes:], payload)
		pos += headerBytes + n
	}
	for _, b := range []int{ps, 2 * ps, 3 * ps, 64 * ps} {
		for b-8-pos > 2*(headerBytes+1000) {
			put(1000)
		}
		put(b - 8 - pos - headerBytes) // the next header starts 8 bytes before b
		put(1000)
	}
	return img
}

// scanResult is everything a scan reports.
type scanResult struct {
	end    int64
	how    scanEnd
	visits []string // "start:payload" per record, in order
}

func scanAll(read viewAt, fcap, inner, base int64) (r scanResult, err error) {
	r.end, r.how, err = scan(read, fcap, inner, base, func(start int64, payload []byte) error {
		r.visits = append(r.visits, fmt.Sprintf("%d:%s", start, payload))
		return nil
	})
	return r, err
}

// FuzzScan feeds arbitrary segment-file bytes to the decoders that read
// media after a crash — the record scanner and the ring-slot probe —
// seeded with the torn-boundary, stale-generation and bad-CRC images
// the recovery tests build. Whatever the bytes, they must not panic,
// must never read past the file or across an inner-segment boundary,
// and every record they yield must re-verify (stamp, bound, CRC).
//
// It is differential: the same image is scanned through a byte-exact
// reader and through the read-ahead segReader at run lengths of 1, 2, 3
// and 64 pages, and all must report the same end, cause and records.
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
	f.Add(straddleImage(), uint8(0), uint8(13)) // 64<<13 = 512 KB: one inner segment

	f.Fuzz(func(t *testing.T, img []byte, seq, innerSel uint8) {
		fcap := int64(len(img))
		inner := int64(64) << (innerSel % 14)
		base := int64(seq) * fcap
		exact := func(off, n int64) ([]byte, error) {
			end := off + n
			if off < 0 || n <= 0 || end > fcap {
				t.Fatalf("read [%d,%d) outside the %d-byte file", off, end, fcap)
			}
			if off/inner != (end-1)/inner {
				t.Fatalf("read [%d,%d) crosses an inner-segment boundary (inner %d)", off, end, inner)
			}
			return img[off:end:end], nil
		}
		prev := int64(0)
		var want scanResult
		end, how, err := scan(exact, fcap, inner, base, func(start int64, payload []byte) error {
			want.visits = append(want.visits, fmt.Sprintf("%d:%s", start, payload))
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

		want.end, want.how = end, how
		const ps = 4096
		pages := (fcap + ps - 1) / ps
		media := make([]byte, pages*ps) // the file's whole pages
		copy(media, img)
		for _, run := range []int64{1, 2, 3, 64} {
			rd := &segReader{ps: ps, run: run, pages: pages, fetch: func(dst []byte, first int64) error {
				n := int64(len(dst)) / ps
				if first < 0 || first%run != 0 || int64(len(dst))%ps != 0 || n != min(run, pages-first) {
					t.Fatalf("run %d: fetch of %d bytes at page %d in a %d-page file", run, len(dst), first, pages)
				}
				copy(dst, media[first*ps:])
				return nil
			}}
			got, err := scanAll(rd.view, fcap, inner, base)
			if err != nil {
				t.Fatalf("run %d: scan: %v", run, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: read-ahead scan ended at %d (%d) with %d records, byte-exact at %d (%d) with %d",
					run, got.end, got.how, len(got.visits), want.end, want.how, len(want.visits))
			}
		}

		if fcap < headerBytes+segHdrBytes {
			return // no ring file is smaller than a page
		}
		const ring = 4
		got := probeSlot(img, int(seq%ring), ring, fcap)
		if got >= 0 && (got%ring != int64(seq%ring) ||
			int64(binary.LittleEndian.Uint64(img[8:])) != got*fcap ||
			int64(binary.LittleEndian.Uint64(img[headerBytes+8:])) != got) {
			t.Fatalf("probe accepted sequence %d from a header that does not name it", got)
		}
	})
}
