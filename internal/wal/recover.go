// Crash recovery: the one record scanner, ring-slot probing, the
// segment-chain walk and torn-tail repair.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"twobssd/internal/ftl"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

// viewAt returns the n bytes at off of one segment file. The slice may
// alias the reader's buffer, capped at n: it is read-only and stays
// valid for good, so Recover caches record payloads without copying.
type viewAt func(off, n int64) ([]byte, error)

// readAheadPages is the length of one recovery read command. Sequential
// bandwidth only appears when one command spans pages that interleave
// over channels and ways; anything from 8 to 128 pages recovers within
// 0.14 ms of 64, so this is a constant, not an option.
const readAheadPages = 64

// segReader serves a recovery scan of one segment file out of read-ahead
// runs of `run` pages, one command each, so every media page is read
// once. Runs are never recycled: what view hands out stays valid for
// whatever a Recover callback retains.
type segReader struct {
	fetch          func(dst []byte, first int64) error // fills dst, whole pages, from page first
	ps, run, pages int64                               // page bytes, pages per run, pages in the file
	runs           [][]byte                            // by run index; nil = not fetched yet
	bad            map[int64]error                     // unreadable pages, by page index
}

func (l *Log) reader(p *sim.Proc, f *vfs.File) *segReader {
	return &segReader{
		fetch: func(dst []byte, first int64) error { return f.ReadAt(p, first*int64(l.ps), dst) },
		ps:    int64(l.ps), run: readAheadPages, pages: int64(f.Pages()),
	}
}

// load returns run i, fetching it on first use. Read-ahead must never
// turn a page the record walk does not consume into an error (a torn
// capacitor dump leaves unreadable pages past the tail), so a failed
// command is retried page by page and only the bad pages are marked;
// view reports one when the walk needs a byte of it.
func (r *segReader) load(i int64) []byte {
	if r.runs == nil {
		r.runs = make([][]byte, (r.pages+r.run-1)/r.run)
	}
	if r.runs[i] != nil {
		return r.runs[i]
	}
	first := i * r.run
	n := min(r.run, r.pages-first)
	b := make([]byte, n*r.ps)
	if r.fetch(b, first) != nil {
		for k := int64(0); k < n; k++ {
			if err := r.fetch(b[k*r.ps:(k+1)*r.ps], first+k); err != nil {
				if r.bad == nil {
					r.bad = make(map[int64]error)
				}
				r.bad[first+k] = err
			}
		}
	}
	r.runs[i] = b
	return b
}

// view is the reader's viewAt: a capacity-capped sub-slice of the run
// holding [off, off+n), or a copy when the range straddles runs.
func (r *segReader) view(off, n int64) ([]byte, error) {
	rb := r.run * r.ps
	first, last := off/rb, (off+n-1)/rb
	var out []byte
	if first != last {
		out = make([]byte, 0, n)
	}
	for i := first; i <= last; i++ {
		b := r.load(i)
		hi := min(off+n-i*rb, int64(len(b)))
		part := b[max(off-i*rb, 0):hi:hi]
		if first == last {
			out = part
		} else {
			out = append(out, part...)
		}
	}
	for pg := off / r.ps; r.bad != nil && pg <= (off+n-1)/r.ps; pg++ {
		if err := r.bad[pg]; err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanEnd classifies how a segment scan stopped.
type scanEnd int

const (
	scanClean   scanEnd = iota // a zero length field: the clean end of the log
	scanReached                // ran to the file's capacity: a sealed segment
	scanTorn                   // stale or torn bytes: a stamp from a dead generation, a length overrunning the inner segment, or a CRC mismatch
)

// scan walks one segment file of fcap bytes from position 0, handing
// every intact record — a header whose stamp is base plus its position,
// whose payload stays inside its inner segment and matches its CRC —
// to visit with its local start offset, and returns where and how the
// walk ended.
func scan(read viewAt, fcap, inner, base int64, visit func(start int64, payload []byte) error) (end int64, how scanEnd, err error) {
	pos := int64(0)
	for pos+headerBytes <= fcap {
		segEnd := min((pos/inner+1)*inner, fcap)
		if pos+headerBytes > segEnd {
			pos = segEnd
			continue
		}
		hdr, err := read(pos, headerBytes)
		if err != nil {
			return 0, 0, err
		}
		rawLen := binary.LittleEndian.Uint32(hdr[0:])
		if rawLen == 0 {
			return pos, scanClean, nil
		}
		if rawLen == padMarker {
			pos = segEnd
			continue
		}
		n := int64(rawLen)
		stamp := int64(binary.LittleEndian.Uint64(hdr[8:]))
		if stamp != base+pos || pos+headerBytes+n > segEnd {
			return pos, scanTorn, nil
		}
		payload, err := read(pos+headerBytes, n)
		if err != nil {
			return 0, 0, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return pos, scanTorn, nil
		}
		if err := visit(pos, payload); err != nil {
			return 0, 0, err
		}
		pos += headerBytes + n
	}
	return pos, scanReached, nil
}

// probeSlot validates hdr, which starts with the first
// headerBytes+segHdrBytes of ring slot i's file, and returns the segment sequence the slot holds, or -1
// for a slot holding none: the header must be an intact record at
// position 0 whose stamp is a segment base owned by this slot and whose
// payload names the same sequence.
func probeSlot(hdr []byte, i, ring int, fileBytes int64) int64 {
	if binary.LittleEndian.Uint32(hdr[0:]) != segHdrBytes {
		return -1
	}
	payload := hdr[headerBytes : headerBytes+segHdrBytes]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return -1
	}
	stamp := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if stamp < 0 || stamp%fileBytes != 0 {
		return -1
	}
	seq := stamp / fileBytes
	if seq%int64(ring) != int64(i) {
		return -1
	}
	if string(payload[:8]) != segHdrMagic ||
		int64(binary.LittleEndian.Uint64(payload[8:])) != seq {
		return -1
	}
	return seq
}

// Recover rebuilds the log from media after a crash (or verifies a
// quiesced live log end to end), invoking fn for every intact record
// past the checkpoint, and positions the log to continue appending
// after the last one. In BA mode any of this log's segments still
// pinned from before a crash are flushed to NAND first (the mapping
// table survived the power cycle via the recovery manager), so a
// block-read scan sees everything.
//
// A ring reads the checkpoint meta page, probes every slot's segment
// header, and walks the segment chain from the checkpoint segment
// forward; a torn or stale tail is durably cut back to the last intact
// record. Only a ring cuts: its recycled slots leave stale generations
// past the tail. A cut counts in wal.seg_torn_repairs; one that cannot
// be made durable fails Recover. The caller must quiesce
// appenders/committers first. A payload handed to fn is read-only: on
// a tailed log it is the very bytes the tail cache serves.
func (l *Log) Recover(p *sim.Proc, fn func(lsn LSN, payload []byte) error) error {
	t0 := l.env.Now()
	sp := l.o.Tracer().BeginProc(p, "wal", "recover")
	defer sp.End()
	if l.retained != nil {
		l.retained = make(map[int64][]tailRec)
	}
	if err := l.unpin(p); err != nil {
		return err
	}

	ring := int64(len(l.files))
	var ckpt int64
	slotSeq := []int64{0} // a ring of one is always segment 0
	if l.ringed() {
		var err error
		if ckpt, err = l.readMeta(p); err != nil {
			return err
		}
		slotSeq = make([]int64, ring)
		hdr := make([]byte, l.ps) // each slot's first page, the one command a probe costs
		for i, f := range l.files {
			// A read error must fail Recover, never pass for a free slot:
			// that would end the chain walk early and let the next appends
			// overwrite live records.
			if err := f.ReadAt(p, 0, hdr); err != nil {
				return fmt.Errorf("wal: probing ring slot %d: %w", i, err)
			}
			slotSeq[i] = probeSlot(hdr, i, len(l.files), l.fileBytes)
		}
	}

	seg := ckpt / l.fileBytes
	l.firstSeg = seg
	var tail int64
	var rd *segReader // the tail segment's reader: it holds the stage image
	for {
		base := seg * l.fileBytes
		f := l.file(seg)
		rd = l.reader(p, f)
		if slotSeq[seg%ring] != seg {
			// The chain ends before seg ever persisted a header: seg is
			// the (empty) active segment.
			tail = max(base, ckpt)
			l.hdrPending = true
			break
		}
		end, how, err := scan(rd.view, l.fileBytes, l.segBytes, base,
			func(start int64, payload []byte) error {
				g := base + start + headerBytes + int64(len(payload))
				if l.ringed() && start == 0 || g <= ckpt {
					return nil // the segment header record, or checkpointed state
				}
				if l.retained != nil {
					l.retained[seg] = append(l.retained[seg], tailRec{
						end: LSN(g), at: l.env.Now(), payload: payload,
					})
				}
				if fn == nil {
					return nil
				}
				return fn(LSN(g), payload)
			})
		if err != nil {
			return err
		}
		if how == scanReached && l.ringed() && slotSeq[(seg+1)%ring] == seg+1 {
			seg++ // sealed segment: the chain continues in the next slot
			continue
		}
		tail = base + end
		l.hdrPending = false
		if how == scanTorn && l.ringed() {
			if err := repairTail(p, f, end); err != nil {
				return fmt.Errorf("wal: cutting the torn tail back to %d: %w", tail, err)
			}
			l.cRepairs.Inc()
		}
		break
	}

	// Re-point the writer at the tail and rebuild the stage's tail page
	// so later flushes rewrite real bytes.
	local := tail - seg*l.fileBytes
	if l.halves == nil {
		l.stage, l.stageOff = l.stage[:0], local/int64(l.ps)*int64(l.ps)
		l.growStage(local)
		if local > l.stageOff {
			img, err := rd.view(l.stageOff, local-l.stageOff) // already fetched by the scan
			if err != nil {
				return err
			}
			copy(l.stage, img)
		}
	}
	l.curSeg, l.ckpt = seg, ckpt
	l.appendOff, l.durableOff, l.flushedOff = tail, tail, tail
	if l.ringed() {
		l.gLive.Set(float64(l.curSeg - l.firstSeg + 1))
		l.hRecover.Observe(sim.Duration(l.env.Now() - t0))
	}
	if l.retained != nil {
		l.retainFrom = 0 // the scan re-cached everything past the checkpoint
		l.moved.Fire()
	}
	return nil
}

// unpin flushes any BA-buffer entries pinned over this log's files and
// frees the halves. PMR mode has no entries; its halves flush through
// the block stack.
func (l *Log) unpin(p *sim.Proc) error {
	if l.cfg.Mode == PMR {
		for _, h := range l.halves {
			if err := l.flushHalf(p, h); err != nil {
				return err
			}
			h.ready = true
		}
		return nil
	}
	if l.cfg.Mode != BA {
		return nil
	}
	for _, f := range l.files {
		lo := f.LBA(0)
		hi := lo + ftl.LBA(f.Pages())
		for _, ent := range l.cfg.SSD.Entries() {
			if ent.LBA >= lo && ent.LBA < hi {
				if err := l.cfg.SSD.BAFlush(p, ent.ID); err != nil {
					return err
				}
			}
		}
	}
	for _, h := range l.halves {
		h.seg = -1
		h.ready = true
	}
	return nil
}

// repairTail durably cuts the log back to localEnd by writing a zero
// length field — the end-of-log marker — over the torn bytes, then
// reads it back to prove the cut took. Idempotent: a repeat crash
// re-scans to the same clean end with nothing left to repair.
func repairTail(p *sim.Proc, f *vfs.File, localEnd int64) error {
	zero := []byte{0, 0, 0, 0}
	if err := f.WriteAt(p, localEnd, zero); err != nil {
		return err
	}
	if err := f.Sync(p); err != nil {
		return err
	}
	chk := make([]byte, 4)
	if err := f.ReadAt(p, localEnd, chk); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(chk) != 0 {
		return fmt.Errorf("wal: torn-tail repair readback at %d not clean", localEnd)
	}
	return nil
}
