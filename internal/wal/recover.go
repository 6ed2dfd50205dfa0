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

// RepairReport describes what torn-tail repair the last Recover
// performed. Only a ring repairs: its recycled slots leave stale
// generations past the tail, which the repair durably cuts off.
type RepairReport struct {
	TornTail     bool   // a torn or stale tail was detected
	RepairedAt   LSN    // LSN where the log was durably cut back
	DroppedBytes int64  // bytes past the cut invalidated by the repair
	Failure      string // why the cut could not be made durable ("" = repaired)
}

// Repair returns the last Recover's torn-tail repair report.
func (l *Log) Repair() RepairReport { return l.repair }

// readAt reads len(b) bytes at off from one segment file.
type readAt func(off int64, b []byte) error

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
func scan(read readAt, fcap, inner, base int64, visit func(start int64, payload []byte) error) (end int64, how scanEnd, err error) {
	var hdr [headerBytes]byte
	pos := int64(0)
	for pos+headerBytes <= fcap {
		segEnd := min((pos/inner+1)*inner, fcap)
		if pos+headerBytes > segEnd {
			pos = segEnd
			continue
		}
		if err := read(pos, hdr[:]); err != nil {
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
		payload := make([]byte, n)
		if err := read(pos+headerBytes, payload); err != nil {
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

// probeSlot validates ring slot i's segment header record and returns
// the segment sequence it holds, or -1 for a slot holding none: the
// header must be an intact record at position 0 whose stamp is a
// segment base owned by this slot and whose payload names the same
// sequence. A read error is returned, never mistaken for a free slot —
// that would end the chain walk early and let the next appends
// overwrite live records.
func probeSlot(read readAt, i, ring int, fileBytes int64) (int64, error) {
	var hdr [headerBytes + segHdrBytes]byte
	if err := read(0, hdr[:]); err != nil {
		return -1, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != segHdrBytes {
		return -1, nil
	}
	payload := hdr[headerBytes:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return -1, nil
	}
	stamp := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if stamp < 0 || stamp%fileBytes != 0 {
		return -1, nil
	}
	seq := stamp / fileBytes
	if seq%int64(ring) != int64(i) {
		return -1, nil
	}
	if string(payload[:8]) != segHdrMagic ||
		int64(binary.LittleEndian.Uint64(payload[8:])) != seq {
		return -1, nil
	}
	return seq, nil
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
// record (see Repair). The caller must quiesce appenders/committers
// first.
func (l *Log) Recover(p *sim.Proc, fn func(lsn LSN, payload []byte) error) error {
	t0 := l.env.Now()
	sp := l.o.Tracer().BeginProc(p, "wal", "recover")
	defer sp.End()
	l.repair = RepairReport{}
	if l.retained != nil {
		l.retained = make(map[int64][]tailRec)
	}
	if err := l.unpin(p); err != nil {
		return err
	}

	ring := int64(len(l.files))
	reader := func(f *vfs.File) readAt {
		return func(off int64, b []byte) error { return f.ReadAt(p, off, b) }
	}
	var ckpt int64
	slotSeq := []int64{0} // a ring of one is always segment 0
	if l.ringed() {
		var err error
		if ckpt, err = l.readMeta(p); err != nil {
			return err
		}
		slotSeq = make([]int64, ring)
		for i, f := range l.files {
			if slotSeq[i], err = probeSlot(reader(f), i, len(l.files), l.fileBytes); err != nil {
				return fmt.Errorf("wal: probing ring slot %d: %w", i, err)
			}
		}
	}

	seg := ckpt / l.fileBytes
	l.firstSeg = seg
	var tail int64
	for {
		base := seg * l.fileBytes
		if slotSeq[seg%ring] != seg {
			// The chain ends before seg ever persisted a header: seg is
			// the (empty) active segment.
			tail = max(base, ckpt)
			l.hdrPending = true
			break
		}
		f := l.file(seg)
		end, how, err := scan(reader(f), l.fileBytes, l.segBytes, base,
			func(start int64, payload []byte) error {
				g := base + start + headerBytes + int64(len(payload))
				if l.ringed() && start == 0 || g <= ckpt {
					return nil // the segment header record, or checkpointed state
				}
				if l.retained != nil {
					l.retained[seg] = append(l.retained[seg], tailRec{
						end: LSN(g), at: l.env.Now(), payload: string(payload),
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
			l.repair = RepairReport{TornTail: true, RepairedAt: LSN(tail), DroppedBytes: base + l.fileBytes - tail}
			if err := repairTail(p, f, end); err != nil {
				l.repair.Failure = err.Error()
			} else {
				l.cRepairs.Inc()
			}
		}
		break
	}

	// Re-point the writer at the tail and rebuild the stage image so
	// later flushes rewrite real bytes.
	local := tail - seg*l.fileBytes
	if l.stage != nil {
		if prev := l.appendOff - l.curSeg*l.fileBytes; prev > local {
			clear(l.stage[local:prev]) // bytes of the pre-recovery stream past the tail
		}
		if local > 0 {
			if err := l.file(seg).ReadAt(p, 0, l.stage[:local]); err != nil {
				return err
			}
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
