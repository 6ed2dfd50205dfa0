// Package wal implements write-ahead logging over the simulated
// storage stack: one log type that owns its segment files, rotation,
// truncation and sync policy, with the commit modes the paper compares
// (Fig 5):
//
//   - Sync:  the conventional scheme — records staged in host memory,
//     page-aligned block writes plus fsync on commit, with standard
//     group commit so concurrent committers share one flush.
//   - Async: commits return immediately; a background flush runs after
//     a configurable interval. Maximum throughput, open loss window.
//   - BA:    the paper's BA-WAL — records are appended straight onto
//     the 2B-SSD BA-buffer with MMIO stores, committed with BA_SYNC
//     (clflush+mfence+write-verify read), and whole segments are
//     flushed to NAND in the background with BA_FLUSH, double-buffered
//     so logging and flushing proceed in parallel (Section IV-B).
//
// Record format (little endian):
//
//	[4] payload length
//	[4] CRC-32 (IEEE) of the payload
//	[8] LSN of the record start (guards against stale data in recycled
//	    segments and ring slots)
//	[n] payload
//
// Records never straddle an inner-segment boundary (Config.SegmentBytes,
// the BA pin-window unit); a length field of 0xFFFFFFFF is a padding
// marker meaning "skip to the next boundary", and a zero length field
// means end of log.
//
// Geometry. The stream is one LSN space cut into file-sized segments:
// segment seq covers LSNs [seq*S, (seq+1)*S) and lives in ring slot
// seq%Ring. Config{File} is a ring of one — the stream is the file and
// the file is write-once: Append fails with ErrLogFull at its end and
// nothing ever truncates it (lsm's per-memtable logs, which are removed
// whole, and the benchmark probes); nothing but records is ever written
// to it. Config{FS, Name, Ring, SegmentFileBytes} is a ring of segment
// files Name.0 … Name.<Ring-1> plus a checkpoint page Name.meta, and
// the only geometry that truncates: Append rotates into the next slot
// when the active file fills, Checkpoint frees the segments it covers,
// and because a recycled slot still holds the records of a dead
// generation (self-invalidated by their stamps, which are global LSNs)
// every segment starts with a header record naming its sequence number,
// so Recover can walk the chain from the checkpoint forward and durably
// cut a torn tail.
//
// Appends. One rule on every geometry: the lock covers reserving a
// position (and whatever that triggers — padding, a window switch, a
// rotation), never the store, so concurrent appenders' MMIO stores
// overlap and land out of LSN order. The log lists the records that are
// reserved but not yet stored; a BA committer, which persists everything
// below its own record, first waits until none of them lies below it,
// and a flush of a pinned window first waits until none lies inside it.
// So the durable frontier never passes an unstored byte, and nothing
// downstream — tail readers, recovery — re-checks that.
//
// Tail readers (tail.go) stream committed records in LSN order from a
// host-side cache that exists only once a reader has been opened.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"twobssd/internal/arena"
	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/integrity"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
)

// CommitMode selects the durability protocol.
type CommitMode int

// The commit modes: the three of Fig 5 plus PM, the heterogeneous
// memory architecture of Fig 10 (records persist in a host persistent
// memory buffer at commit and flush to the log device lazily, as in
// NVWAL-style designs).
const (
	Sync CommitMode = iota
	Async
	BA
	PM
	// PMR models an NVMe Persistent-Memory-Region SSD (the Section VII
	// comparison): records append to device NVRAM over MMIO like BA,
	// but there is NO internal datapath — filled segments must be DMA-
	// read back to the host and written to the file through the block
	// I/O stack.
	PMR
)

func (m CommitMode) String() string {
	switch m {
	case Sync:
		return "SYNC"
	case Async:
		return "ASYNC"
	case BA:
		return "BA"
	case PM:
		return "PM"
	case PMR:
		return "PMR"
	default:
		return fmt.Sprintf("CommitMode(%d)", int(m))
	}
}

// LSN is a log sequence number: the stream offset just past a record.
type LSN uint64

const headerBytes = 16

// RecordOverhead is the per-record header size: a record returned at
// LSN end carries its payload at [end-len(payload), end) and its
// header at [end-len(payload)-RecordOverhead, end-len(payload)).
const RecordOverhead = headerBytes

// padMarker in the length field tells recovery to skip to the next
// inner-segment boundary.
const padMarker = 0xFFFFFFFF

// Ring-geometry format constants.
const (
	// segHdrMagic + the segment sequence number form the payload of the
	// first record of every ring segment (an ordinary record, so it
	// carries the usual length/CRC/stamp header).
	segHdrMagic = "2BSSDSEG"
	segHdrBytes = 16

	// metaMagic tags the checkpoint meta page:
	// [4] magic | [8] checkpoint LSN | [4] CRC-32C of the first 12.
	metaMagic = 0x32425347
)

// Errors reported by the log.
var (
	ErrLogFull   = errors.New("wal: log full (checkpoint required)")
	ErrTooLarge  = errors.New("wal: record larger than a segment")
	ErrBadConfig = errors.New("wal: invalid configuration")

	// ErrEmptyRecord rejects an empty payload: its zero length field
	// would read as the clean end of the log, and recovery would stop
	// there, before every record appended after it.
	ErrEmptyRecord = errors.New("wal: empty record")

	// ErrWALFull is ErrLogFull on a ring: every slot still holds a
	// retained segment, and a Checkpoint must free some before more can
	// be appended.
	ErrWALFull = fmt.Errorf("%w: every ring slot retained", ErrLogFull)
)

// Config assembles a log.
type Config struct {
	Mode CommitMode

	// Geometry — set File, or FS+Name+Ring+SegmentFileBytes.
	//
	// File is a ring of one: the whole stream lives in this file (all
	// modes). FS and Name place a ring instead (every mode but PMR):
	// Ring (>= 2) segment files of SegmentFileBytes (page aligned) each,
	// plus the checkpoint page. Ring files that already exist are
	// reopened (the post-crash path); call Recover to resume from them.
	File             *vfs.File
	FS               *vfs.FS
	Name             string
	Ring             int
	SegmentFileBytes int64

	// SegmentBytes is the unit records must not straddle. In BA mode
	// it is the pinned-window size (half the BA-buffer with double
	// buffering, per the paper) and the NAND LBA range each BA-buffer
	// half pins onto; zero means one whole file. On a ring it must
	// divide SegmentFileBytes.
	SegmentBytes int

	// BA/PMR-mode placement: the mapping-table entries given decide the
	// buffer halves used. One entry is a single pinned window (the
	// append stalls while a full window flushes); two or more double-
	// buffer across the first two, pinning the next inner segment while
	// the last one flushes (Section IV-B).
	SSD          *core.TwoBSSD
	EIDs         []core.EID
	BufferOffset int // base of this log's window in the BA-buffer
}

// asyncFlushInterval bounds the loss window in Async mode and sets the
// PM mode's lazy write-behind cadence.
const asyncFlushInterval = 10 * sim.Millisecond

// pmPersistCost is the PM-mode commit cost: a DRAM-latency store plus
// cache-line flush into the emulated persistent memory.
const pmPersistCost = 200 * sim.Nanosecond

type half struct {
	eid    core.EID
	bufOff int   // byte offset of this half in the BA-buffer
	seg    int64 // inner segment (LSN / SegmentBytes) currently pinned, -1 if none
	ready  bool  // not mid-flush
	sig    *sim.Signal
}

// Log is one write-ahead log.
type Log struct {
	env *sim.Env
	cfg Config
	ps  int

	files     []*vfs.File  // ring slots; one entry for a ring of one
	one       [1]*vfs.File // backs files for a ring of one (engines open a log per memtable; spare them the slice)
	meta      *vfs.File    // checkpoint page; nil for a ring of one
	fileBytes int64        // S: LSNs per segment file
	segBytes  int64        // inner segment: records never straddle it

	firstSeg   int64 // oldest retained segment
	curSeg     int64 // active segment
	ckpt       int64 // checkpoint LSN recorded in the meta page
	hdrPending bool  // the active ring segment has no header record yet

	appendOff  int64
	durableOff int64
	flushedOff int64 // device-flush cursor (differs from durable in PM mode)

	mu *sim.Resource // serializes offset reservation, rotation and checkpoints — never a store

	// moved fires when a flush leader finishes, when a store lands that
	// someone is parked on and, once the log is tailed, whenever the
	// durable frontier or the retention floor moves; every waiter
	// re-checks its own condition.
	moved *sim.Signal

	// storing holds the start offsets of records that are reserved but
	// whose MMIO store has not landed yet, in LSN order: at most one per
	// concurrent appender, byte modes only (a block-mode store is a copy
	// that never yields). storeWaiters counts the processes parked on
	// moved for one of them, so a store nobody waits on fires nothing.
	storing      []int64
	storeWaiters int

	// Block-mode state. stage holds the active file's bytes from
	// stageOff — the page holding flushedOff, where the next flush
	// starts rewriting — to the end of the page holding appendOff: it
	// grows on append, and a flush shifts the partial tail page down.
	// flushing is the group-commit leader flag.
	stage          []byte
	stageOff       int64
	flushing       bool
	asyncScheduled bool

	// BA-mode state.
	halves []*half

	// recPool recycles Append's record-encoding buffers. A freelist
	// rather than a single scratch because l.mu is released before the
	// MMIO store on every geometry, so concurrent appenders each hold one.
	recPool [][]byte

	// Tail-reader cache (tail.go): nil until the first Tail call. Append
	// copies each cached record into kept; Recover caches the scan's
	// read buffers as they are.
	retained   map[int64][]tailRec // segment seq → records in LSN order
	retainFrom int64               // records ending at or below were never cached
	kept       arena.Arena

	// Metrics: "wal.*" for every log; a ring additionally publishes its
	// lifecycle under "wal.seg_*" (left nil — a no-op — otherwise).
	o                  *obs.Set
	inj                *fault.Injector
	cAppends, cCommits *obs.Counter
	cFlushes           *obs.Counter
	cBytes, cPadBytes  *obs.Counter
	hCommit            *histo.H

	cRotations, cCheckpoints, cTruncations *obs.Counter
	cSegCommits, cGroupFlushes             *obs.Counter
	cTailRecs, cRepairs                    *obs.Counter
	hSegCommit, hRotate                    *histo.H
	hCheckpoint, hRecover                  *histo.H
	gLive                                  *obs.Gauge
}

// Open builds a log over cfg. The files are assumed fresh; call Recover
// to resume an existing log (on fresh files it finds an empty one).
func Open(env *sim.Env, cfg Config) (*Log, error) {
	l := &Log{env: env, ps: 4096, o: obs.Of(env), inj: fault.Of(env)}
	if cfg.SSD != nil {
		l.ps = cfg.SSD.PageSize()
	} else if cfg.FS != nil {
		l.ps = cfg.FS.PageSize()
	}
	ps := int64(l.ps)
	muName, sigName := "wal.mu", "wal.flushed"
	switch {
	case cfg.File != nil && cfg.FS == nil && cfg.Ring <= 1:
		l.one[0] = cfg.File
		l.files = l.one[:]
		l.fileBytes = cfg.File.Capacity()
	case cfg.File == nil && cfg.FS != nil && cfg.Name != "":
		if cfg.Mode == PMR {
			return nil, fmt.Errorf("%w: PMR mode needs a single File", ErrBadConfig)
		}
		if cfg.Ring < 2 {
			return nil, fmt.Errorf("%w: segment ring needs >= 2 slots", ErrBadConfig)
		}
		if cfg.SegmentFileBytes <= 0 || cfg.SegmentFileBytes%ps != 0 {
			return nil, fmt.Errorf("%w: SegmentFileBytes must be page aligned", ErrBadConfig)
		}
		l.fileBytes = cfg.SegmentFileBytes
		muName, sigName = "wal."+cfg.Name+".mu", "wal."+cfg.Name+".flushed"
	default:
		return nil, fmt.Errorf("%w: need File, or FS+Name+Ring", ErrBadConfig)
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = int(l.fileBytes)
	}
	l.segBytes = int64(cfg.SegmentBytes)
	if cfg.FS != nil && (l.segBytes <= 0 || l.fileBytes%l.segBytes != 0) {
		return nil, fmt.Errorf("%w: SegmentBytes must divide SegmentFileBytes", ErrBadConfig)
	}
	nHalves := 0
	if cfg.Mode == BA || cfg.Mode == PMR {
		if cfg.SSD == nil {
			return nil, fmt.Errorf("%w: BA/PMR mode needs an SSD", ErrBadConfig)
		}
		if nHalves = min(len(cfg.EIDs), 2); nHalves == 0 {
			return nil, fmt.Errorf("%w: BA/PMR mode needs an EID", ErrBadConfig)
		}
		if l.segBytes%ps != 0 || l.segBytes <= 0 {
			return nil, fmt.Errorf("%w: SegmentBytes must be page aligned", ErrBadConfig)
		}
		if l.segBytes > l.fileBytes {
			return nil, fmt.Errorf("%w: segment larger than file", ErrBadConfig)
		}
		cfg.EIDs = slices.Clone(cfg.EIDs) // Rebind overwrites it in place
	}
	l.cfg = cfg
	l.mu = env.NewResource(muName, 1)
	l.moved = env.NewSignal(sigName)

	reg := l.o.Registry()
	l.cAppends = reg.Counter("wal.appends")
	l.cCommits = reg.Counter("wal.commits")
	l.cFlushes = reg.Counter("wal.flushes")
	l.cBytes = reg.Counter("wal.bytes_appended")
	l.cPadBytes = reg.Counter("wal.pad_bytes")
	l.hCommit = reg.Histo("wal.commit_ns")
	if cfg.FS != nil {
		for i := 0; i < cfg.Ring; i++ {
			f, err := openOrCreate(cfg.FS, fmt.Sprintf("%s.%d", cfg.Name, i), l.fileBytes)
			if err != nil {
				return nil, err
			}
			l.files = append(l.files, f)
		}
		var err error
		if l.meta, err = openOrCreate(cfg.FS, cfg.Name+".meta", ps); err != nil {
			return nil, err
		}
		l.hdrPending = true
		l.cRotations = reg.Counter("wal.seg_rotations")
		l.cCheckpoints = reg.Counter("wal.seg_checkpoints")
		l.cTruncations = reg.Counter("wal.seg_truncations")
		l.cSegCommits = reg.Counter("wal.seg_commits")
		l.cGroupFlushes = reg.Counter("wal.seg_group_flushes")
		l.cTailRecs = reg.Counter("wal.seg_tail_records")
		l.cRepairs = reg.Counter("wal.seg_torn_repairs")
		l.hSegCommit = reg.Histo("wal.seg_commit_ns")
		l.hRotate = reg.Histo("wal.seg_rotate_ns")
		l.hCheckpoint = reg.Histo("wal.seg_checkpoint_ns")
		l.hRecover = reg.Histo("wal.seg_recover_ns")
		l.gLive = reg.Gauge("wal.seg_live")
		l.gLive.Set(1)
	}
	if nHalves > 0 {
		for i := 0; i < nHalves; i++ {
			l.halves = append(l.halves, &half{
				eid:    cfg.EIDs[i],
				bufOff: cfg.BufferOffset + i*cfg.SegmentBytes,
				seg:    -1,
				ready:  true,
				sig:    env.NewSignal(fmt.Sprintf("wal.half%d", i)),
			})
		}
	}
	return l, nil
}

func openOrCreate(fs *vfs.FS, name string, capacity int64) (*vfs.File, error) {
	if fs.Exists(name) {
		return fs.Open(name)
	}
	return fs.Create(name, capacity)
}

// Mode returns the commit mode.
func (l *Log) Mode() CommitMode { return l.cfg.Mode }

// AppendOff returns the current end of the log stream.
func (l *Log) AppendOff() int64 { return l.appendOff }

// DurableOff returns the offset below which all records are durable.
func (l *Log) DurableOff() int64 { return l.durableOff }

// CheckpointLSN returns the last durably recorded checkpoint.
func (l *Log) CheckpointLSN() LSN { return LSN(l.ckpt) }

// RetainedLSN returns the truncation floor: everything below it was
// freed by a checkpoint, and tail readers positioned there see
// ErrTruncated.
func (l *Log) RetainedLSN() LSN { return LSN(l.firstSeg * l.fileBytes) }

// Segments returns the live segment range [first, cur].
func (l *Log) Segments() (first, cur int64) { return l.firstSeg, l.curSeg }

// ringed reports ring geometry (segment headers, meta page, rotation).
func (l *Log) ringed() bool { return l.meta != nil }

// file returns the ring file holding segment seq.
func (l *Log) file(seq int64) *vfs.File { return l.files[seq%int64(len(l.files))] }

// halfFor returns the buffer half that serves the inner segment
// containing pos: halves alternate within each file, starting over at
// every file's first inner segment.
func (l *Log) halfFor(pos int64) *half {
	return l.halves[pos%l.fileBytes/l.segBytes%int64(len(l.halves))]
}

// maxRecord is the largest header+payload Append accepts: a record
// must fit one inner segment, and when a ring file is a single inner
// segment it also shares that segment with the header record.
func (l *Log) maxRecord() int64 {
	if l.ringed() && l.segBytes == l.fileBytes {
		return l.segBytes - headerBytes - segHdrBytes
	}
	return l.segBytes
}

// getRec returns an n-byte record buffer, reusing a retired one when it
// is large enough.
func (l *Log) getRec(n int) []byte {
	if k := len(l.recPool); k > 0 {
		r := l.recPool[k-1]
		l.recPool[k-1] = nil
		l.recPool = l.recPool[:k-1]
		if cap(r) >= n {
			return r[:n]
		}
	}
	return make([]byte, n)
}

func (l *Log) putRec(r []byte) { l.recPool = append(l.recPool, r) }

func encodeHeader(dst []byte, payload []byte, pos int64) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(dst[8:], uint64(pos))
}

// Append stages one record and returns its LSN (commit target). The
// record becomes durable only after Commit(lsn) in Sync/BA modes. On a
// ring, rotation happens here, transparently, when the active segment
// file fills; ErrWALFull means a checkpoint must free a slot first. An
// empty payload is ErrEmptyRecord, and reserves nothing.
func (l *Log) Append(p *sim.Proc, payload []byte) (LSN, error) {
	if len(payload) == 0 {
		return 0, ErrEmptyRecord
	}
	need := headerBytes + len(payload)
	if int64(need) > l.maxRecord() {
		return 0, fmt.Errorf("%w: %d > segment %d", ErrTooLarge, need, l.maxRecord())
	}

	l.mu.Acquire(p)
	pos, h, err := l.reserve(p, need)
	end := pos + int64(need)
	if err == nil && l.retained != nil {
		seg := pos / l.fileBytes
		l.retained[seg] = append(l.retained[seg], tailRec{end: LSN(end), payload: l.kept.Copy(payload)})
	}
	// The store runs outside the lock, so concurrent stores overlap;
	// what needs them landed waits for them (awaitStores), not for mu.
	l.mu.Release()
	if err != nil {
		return 0, err
	}
	if err := l.store(p, pos, h, payload); err != nil {
		return 0, err
	}
	return LSN(end), nil
}

// awaitStores parks until no store is in flight on a record that
// starts in [lo, hi). The check runs after every wake-up, so whatever
// the caller decides next rests on bytes that have landed.
func (l *Log) awaitStores(p *sim.Proc, lo, hi int64) {
	inFlight := func(pos int64) bool { return lo <= pos && pos < hi }
	for slices.ContainsFunc(l.storing, inFlight) {
		l.storeWaiters++
		l.moved.Wait(p)
		l.storeWaiters--
	}
}

// reserve claims need bytes of stream for one record: it writes the
// active ring segment's header record if that is still pending, pads
// to the next inner-segment boundary when the record would straddle
// it, rotates (or reports ErrLogFull) when the file is exhausted, and
// binds the record's inner segment to a buffer half. Called with l.mu
// held.
func (l *Log) reserve(p *sim.Proc, need int) (pos int64, h *half, err error) {
	for {
		if l.hdrPending {
			if err := l.writeSegHeader(p); err != nil {
				return 0, nil, err
			}
		}
		segEnd := (l.appendOff/l.segBytes + 1) * l.segBytes
		if l.appendOff+int64(need) > segEnd {
			if err := l.pad(p, segEnd); err != nil {
				return 0, nil, err
			}
		}
		if l.appendOff+int64(need) <= (l.curSeg+1)*l.fileBytes {
			break
		}
		if err := l.rotate(p); err != nil {
			return 0, nil, err
		}
	}
	return l.claim(p, need)
}

// claim takes the next need bytes of the stream, binds their inner
// segment to a buffer half (nil in block modes) and, on a half, lists
// the record as storing until store retires it. Called with l.mu held.
func (l *Log) claim(p *sim.Proc, need int) (pos int64, h *half, err error) {
	pos = l.appendOff
	l.appendOff += int64(need)
	if h, err = l.pinFor(p, pos); err != nil {
		l.appendOff = pos // roll back: nothing was written
	} else if h != nil {
		l.storing = append(l.storing, pos)
	}
	return pos, h, err
}

// write copies b into the log buffer at stream position pos: the BA
// window pinned on h, or the stage image of the active file.
func (l *Log) write(p *sim.Proc, pos int64, h *half, b []byte) error {
	if h != nil {
		return l.cfg.SSD.Mmio().Write(p, h.bufOff+int(pos%l.segBytes), b)
	}
	local := pos - l.curSeg*l.fileBytes
	l.growStage(local + int64(len(b)))
	copy(l.stage[local-l.stageOff:], b)
	return nil
}

// growStage extends the stage, zero-filled, to the end of the page
// holding file offset end.
func (l *Log) growStage(end int64) {
	ps := int64(l.ps)
	n := int(min((end+ps-1)/ps*ps, l.fileBytes) - l.stageOff)
	if old := len(l.stage); n > old {
		l.stage = slices.Grow(l.stage, n-old)[:n]
		clear(l.stage[old:])
	}
}

// store encodes one record at its claimed position and writes it, then
// retires it from storing — failed or not, the caller has the error —
// and wakes whoever is parked on stores. The tail cache is stamped
// first: a record the frontier may cover is one a reader may have.
func (l *Log) store(p *sim.Proc, pos int64, h *half, payload []byte) error {
	need := headerBytes + len(payload)
	rec := l.getRec(need)
	encodeHeader(rec, payload, pos)
	copy(rec[headerBytes:], payload)
	err := l.write(p, pos, h, rec)
	l.putRec(rec) // write copied the bytes; the buffer is free again
	if err == nil && l.retained != nil {
		l.stampRetained(pos + int64(need))
	}
	if h != nil {
		i := slices.Index(l.storing, pos)
		l.storing = slices.Delete(l.storing, i, i+1)
		if l.storeWaiters > 0 {
			l.moved.Fire()
		}
	}
	if err != nil {
		return err
	}
	l.cAppends.Inc()
	l.cBytes.Add(uint64(need))
	return nil
}

// writeSegHeader appends the active ring segment's header record (the
// first record of every segment: magic + sequence number). Called with
// l.mu held.
func (l *Log) writeSegHeader(p *sim.Proc) error {
	var hdr [segHdrBytes]byte
	copy(hdr[:], segHdrMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(l.curSeg))
	pos, h, err := l.claim(p, headerBytes+segHdrBytes)
	if err != nil {
		return err
	}
	if err := l.store(p, pos, h, hdr[:]); err != nil {
		l.appendOff = pos
		return err
	}
	l.hdrPending = false
	return nil
}

// pad writes a pad marker (if room) and advances to `to`, which must be
// the next inner-segment boundary.
func (l *Log) pad(p *sim.Proc, to int64) error {
	gap := to - l.appendOff
	if gap <= 0 {
		return nil
	}
	l.cPadBytes.Add(uint64(gap))
	if gap >= 4 {
		h, err := l.pinFor(p, l.appendOff)
		if err != nil {
			return err
		}
		if err := l.write(p, l.appendOff, h, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
			return err
		}
	}
	l.appendOff = to
	return nil
}

// rotate flushes the (padded-out) active segment to NAND and re-points
// the writer at the next ring slot. Nothing is written to the new
// slot's media here: the bytes a previous generation left in it
// self-invalidate because their stamps are not LSNs of this segment.
// Called with l.mu held.
func (l *Log) rotate(p *sim.Proc) error {
	if !l.ringed() {
		return ErrLogFull
	}
	if l.curSeg-l.firstSeg+1 >= int64(len(l.files)) {
		return ErrWALFull
	}
	t0 := l.env.Now()
	sp := l.o.Tracer().BeginProc(p, "wal", "rotate")
	defer sp.End()
	if err := l.FlushToNAND(p); err != nil {
		return err
	}
	l.curSeg++
	l.hdrPending = true
	l.stage, l.stageOff = l.stage[:0], 0
	l.cRotations.Inc()
	l.inj.Tick(fault.EvWalRotate)
	l.hRotate.Observe(sim.Duration(l.env.Now() - t0))
	l.gLive.Set(float64(l.curSeg - l.firstSeg + 1))
	return nil
}

// pinFor ensures the inner segment containing pos is bound to a half
// and returns it (nil in block modes, which have none). In BA mode the
// bind is a BA_PIN (with the internal datapath load + the LBA gate); in
// PMR mode the window is raw NVRAM — no pin, no gate, no load. Called
// with l.mu held.
func (l *Log) pinFor(p *sim.Proc, pos int64) (*half, error) {
	if l.halves == nil {
		return nil, nil
	}
	seg := pos / l.segBytes
	h := l.halfFor(pos)
	if h.seg == seg {
		return h, nil
	}
	// Wait for any in-flight flush of this half to finish.
	for !h.ready {
		h.sig.Wait(p)
	}
	if h.seg == seg {
		return h, nil
	}
	if h.seg >= 0 {
		// A previous segment is still pinned here (single-buffer case,
		// or a lagging half): flush it out synchronously.
		if err := l.flushHalf(p, h); err != nil {
			return nil, err
		}
	}
	if l.cfg.Mode == BA {
		pages := l.cfg.SegmentBytes / l.ps
		start := seg * l.segBytes
		lba := l.file(start / l.fileBytes).LBA(start % l.fileBytes)
		if err := l.cfg.SSD.BAPin(p, h.eid, h.bufOff, lba, pages); err != nil {
			return nil, err
		}
	}
	h.seg = seg

	// Double buffering: kick off a background flush of the *other*
	// half so it is ready when the log wraps to it.
	if len(l.halves) == 2 {
		other := l.halves[0]
		if other == h {
			other = l.halves[1]
		}
		if other.seg >= 0 && other.ready && other.seg < seg {
			other.ready = false
			l.env.Go("wal.baflush", func(w *sim.Proc) {
				if err := l.flushHalf(w, other); err != nil {
					// Power died under the background flush (fault
					// injection): the half stays unflushed; recovery
					// replays it from the dumped BA-buffer image.
					if !errors.Is(err, core.ErrPowerIsOff) {
						panic(fmt.Sprintf("wal: background BA flush: %v", err))
					}
				}
				other.ready = true
				other.sig.Fire()
			})
		}
	}
	return h, nil
}

// flushHalf persists and releases one half, once no store is still
// landing in its window. BA mode: BA_SYNC (commit any posted stores)
// then BA_FLUSH over the internal datapath. PMR
// mode: there is no internal datapath — the segment is DMA-read back
// to the host and written to the file through the block I/O stack,
// exactly the extra round trip Section VII attributes to PMR devices.
func (l *Log) flushHalf(p *sim.Proc, h *half) error {
	if h.seg < 0 {
		return nil
	}
	l.awaitStores(p, h.seg*l.segBytes, (h.seg+1)*l.segBytes)
	sp := l.o.Tracer().BeginProc(p, "wal", "flush_half")
	defer sp.End()
	if l.cfg.Mode == PMR {
		if err := l.cfg.SSD.Mmio().Sync(p, h.bufOff, l.cfg.SegmentBytes); err != nil {
			return err
		}
		buf := make([]byte, l.cfg.SegmentBytes)
		if _, err := l.cfg.SSD.PMRReadDMA(p, h.bufOff, buf); err != nil {
			return err
		}
		start := h.seg * l.segBytes
		f := l.file(start / l.fileBytes)
		if err := f.WriteAt(p, start%l.fileBytes, buf); err != nil {
			return err
		}
		if err := f.Sync(p); err != nil {
			return err
		}
		h.seg = -1
		l.cFlushes.Inc()
		return nil
	}
	if err := l.cfg.SSD.BASync(p, h.eid); err != nil {
		return err
	}
	if err := l.cfg.SSD.BAFlush(p, h.eid); err != nil {
		return err
	}
	h.seg = -1
	l.cFlushes.Inc()
	return nil
}

// Commit makes the log durable up to lsn according to the mode.
func (l *Log) Commit(p *sim.Proc, lsn LSN) error {
	start := l.env.Now()
	sp := l.o.Tracer().BeginProc(p, "wal", "commit")
	defer func() {
		sp.End()
		l.cCommits.Inc()
		l.inj.Tick(fault.EvWalCommit)
		d := sim.Duration(l.env.Now() - start)
		l.hCommit.Observe(d)
		if l.ringed() {
			l.cSegCommits.Inc()
			l.hSegCommit.Observe(d)
		}
	}()
	if l.cfg.Mode == Async {
		l.scheduleAsyncFlush()
		return nil
	}
	led, err := l.commitTo(p, int64(lsn))
	if led {
		l.cGroupFlushes.Inc()
	}
	return err
}

// commitTo is the one durability path behind Commit, Drain and
// Checkpoint; led reports whether this caller's own burst moved the
// durable frontier. Byte-addressable modes let every committer persist
// its own range with no lock, as the paper describes; block modes elect
// a leader whose single write+fsync covers every waiter (group commit).
func (l *Log) commitTo(p *sim.Proc, target int64) (led bool, err error) {
	switch l.cfg.Mode {
	case PM:
		return l.commitPM(p, target), nil
	case BA, PMR:
		return l.commitBA(p, target)
	}
	for l.durableOff < target {
		if l.flushing {
			l.moved.WaitUntil(p, (*flushWait)(l), target)
			continue
		}
		before := l.durableOff
		if err := l.flushBlock(p); err != nil {
			return led, err
		}
		led = led || l.durableOff > before
	}
	return led, nil
}

// advance moves the durable frontier, which tail readers follow.
func (l *Log) advance(to int64) bool {
	if to <= l.durableOff {
		return false
	}
	l.durableOff = to
	if l.retained != nil {
		l.moved.Fire()
	}
	return true
}

// commitPM persists the record in the host PM buffer (a cache-line
// flush away) and schedules a lazy write-behind to the log device —
// the Fig 1(c) heterogeneous memory architecture.
func (l *Log) commitPM(p *sim.Proc, target int64) bool {
	if target <= l.durableOff {
		return false
	}
	p.Sleep(pmPersistCost)
	led := l.advance(target)
	l.scheduleAsyncFlush()
	return led
}

// commitBA syncs the MMIO ranges covering [durableOff, target), once
// every record below target has landed: the frontier it advances is
// "everything below is durable", so it never passes an unstored byte.
func (l *Log) commitBA(p *sim.Proc, target int64) (led bool, err error) {
	l.awaitStores(p, 0, target)
	for from := l.durableOff; from < target; {
		seg := from / l.segBytes
		to := min(target, (seg+1)*l.segBytes)
		// A segment that is no longer pinned was already flushed to
		// NAND — durable by a stronger means.
		if h := l.halfFor(from); h.seg == seg {
			off := h.bufOff + int(from%l.segBytes)
			if err := l.cfg.SSD.Mmio().Sync(p, off, int(to-from)); err != nil {
				return false, err
			}
		}
		from = to
	}
	return l.advance(target), nil
}

// flushWait is the log seen as the condition a block-mode committer
// waits for on moved: the durable frontier reached the target, or no
// flush is in progress (a target of math.MaxInt64 waits for the flush
// alone).
type flushWait Log

func (w *flushWait) Holds(target int64) bool { return w.durableOff >= target || !w.flushing }

// flushBlock writes all staged-but-unflushed bytes (page aligned) and
// fsyncs. The caller becomes the flush leader.
func (l *Log) flushBlock(p *sim.Proc) error {
	// Another leader may be mid-flush (e.g. an async timer racing a
	// Drain): wait for it rather than double-writing.
	l.moved.WaitUntil(p, (*flushWait)(l), math.MaxInt64)
	l.flushing = true
	defer func() {
		l.flushing = false
		l.moved.Fire()
	}()
	flushTo := l.appendOff // absorb everything appended so far (group)
	if flushTo == l.flushedOff {
		return nil
	}
	// Rotation drains before it moves curSeg, so both cursors lie in
	// the active file.
	ps, base := int64(l.ps), l.curSeg*l.fileBytes
	first := (l.flushedOff - base) / ps * ps // == stageOff
	last := min((flushTo-base+ps-1)/ps*ps, l.fileBytes)
	f := l.file(l.curSeg)
	l.growStage(last)
	if err := f.WriteAt(p, first, l.stage[first-l.stageOff:last-l.stageOff]); err != nil {
		return err
	}
	if err := f.Sync(p); err != nil {
		return err
	}
	l.cFlushes.Inc()
	l.flushedOff = flushTo
	// The next flush starts at the page holding flushTo.
	if cut := (flushTo-base)/ps*ps - l.stageOff; cut > 0 {
		l.stage = l.stage[:copy(l.stage, l.stage[cut:])]
		l.stageOff += cut
	}
	if l.cfg.Mode != PM && flushTo > l.durableOff {
		l.durableOff = flushTo // the deferred Fire wakes tail readers too
	}
	return nil
}

// scheduleAsyncFlush arms a one-shot background flush if none is
// pending — the Async mode's loss window.
func (l *Log) scheduleAsyncFlush() {
	if l.asyncScheduled {
		return
	}
	l.asyncScheduled = true
	l.env.GoAt(l.env.Now()+sim.Time(asyncFlushInterval), "wal.asyncflush", func(p *sim.Proc) {
		l.asyncScheduled = false
		if err := l.flushBlock(p); err != nil {
			panic(fmt.Sprintf("wal: async flush: %v", err))
		}
	})
}

// Drain forces all appended records durable (shutdown / checkpoint
// barrier) regardless of mode.
func (l *Log) Drain(p *sim.Proc) error { return l.drainTo(p, l.appendOff) }

// drainTo makes the log durable on the log device up to target in any
// mode: PM's write-behind copy included, which is the one recovery reads.
func (l *Log) drainTo(p *sim.Proc, target int64) error {
	if _, err := l.commitTo(p, target); err != nil {
		return err
	}
	for l.cfg.Mode == PM && l.flushedOff < target {
		if err := l.flushBlock(p); err != nil {
			return err
		}
	}
	return nil
}

// FlushToNAND pushes everything down to flash and unpins BA segments
// (a ring's sealed segments were flushed when it rotated past them).
// After it returns the whole log is block-readable.
func (l *Log) FlushToNAND(p *sim.Proc) error {
	if err := l.Drain(p); err != nil {
		return err
	}
	for _, h := range l.halves {
		for !h.ready {
			h.sig.Wait(p)
		}
		if err := l.flushHalf(p, h); err != nil {
			return err
		}
	}
	if l.halves != nil {
		return nil
	}
	return l.file(l.curSeg).Sync(p)
}

// Checkpoint durably records that the caller's state covers the log up
// to lsn (the caller persists its snapshot FIRST), then truncates —
// frees — every ring segment wholly below the checkpoint. It is the only
// way a log shrinks. The log is made durable to lsn first, in any mode,
// so a checkpoint never claims coverage of volatile records. Truncation
// touches no media: freed slots are recycled by a later rotation, which
// is what makes a crash mid-truncation trivially safe.
func (l *Log) Checkpoint(p *sim.Proc, lsn LSN) error {
	target := int64(lsn)
	if !l.ringed() {
		return fmt.Errorf("%w: Checkpoint needs a segment ring (a single file is write-once)", ErrBadConfig)
	}
	if target > l.appendOff {
		return fmt.Errorf("%w: checkpoint %d past tail %d", ErrBadConfig, target, l.appendOff)
	}
	if err := l.drainTo(p, target); err != nil {
		return err
	}
	t0 := l.env.Now()
	sp := l.o.Tracer().BeginProc(p, "wal", "checkpoint")
	defer sp.End()
	l.mu.Acquire(p)
	defer l.mu.Release()
	if target <= l.ckpt {
		return nil // checkpoints are monotonic
	}
	if err := l.writeMeta(p, target); err != nil {
		return err
	}
	l.ckpt = target
	l.cCheckpoints.Inc()
	l.inj.Tick(fault.EvWalCheckpoint)
	freed := false
	for l.firstSeg < l.curSeg && (l.firstSeg+1)*l.fileBytes <= l.ckpt {
		delete(l.retained, l.firstSeg)
		l.firstSeg++
		l.cTruncations.Inc()
		l.inj.Tick(fault.EvWalTruncate)
		freed = true
	}
	l.gLive.Set(float64(l.curSeg - l.firstSeg + 1))
	l.hCheckpoint.Observe(sim.Duration(l.env.Now() - t0))
	if freed {
		l.moved.Fire() // lapped tail readers must learn ErrTruncated
	}
	return nil
}

func (l *Log) writeMeta(p *sim.Proc, ckpt int64) error {
	page := make([]byte, l.ps)
	binary.LittleEndian.PutUint32(page[0:], metaMagic)
	binary.LittleEndian.PutUint64(page[4:], uint64(ckpt))
	binary.LittleEndian.PutUint32(page[12:], integrity.PageCRC(page[:12]))
	if err := l.meta.WriteAt(p, 0, page); err != nil {
		return err
	}
	return l.meta.Sync(p)
}

// readMeta returns the durably recorded checkpoint LSN, or 0 when the
// meta page is fresh or fails its integrity tag.
func (l *Log) readMeta(p *sim.Proc) (int64, error) {
	page := make([]byte, l.ps)
	if err := l.meta.ReadAt(p, 0, page); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(page[0:]) != metaMagic {
		return 0, nil
	}
	if integrity.Check(page[:12], binary.LittleEndian.Uint32(page[12:])) != nil {
		return 0, nil
	}
	return int64(binary.LittleEndian.Uint64(page[4:])), nil
}

// Rebind moves a fully-flushed BA/PMR log onto a different set of
// mapping-table entries and a different BA-buffer window. It is the
// mechanism behind mapping-table slot leasing: a log that has been
// FlushToNAND'd owns no pinned segments, so its entry IDs and buffer
// offset are free to change before the next append re-pins. Appending
// state (offsets, durability cursors) is untouched.
func (l *Log) Rebind(eids []core.EID, bufferOffset int) error {
	if l.halves == nil {
		return fmt.Errorf("%w: Rebind needs a BA/PMR-mode log", ErrBadConfig)
	}
	if len(eids) < len(l.halves) {
		return fmt.Errorf("%w: Rebind needs %d EIDs", ErrBadConfig, len(l.halves))
	}
	for _, h := range l.halves {
		if h.seg != -1 || !h.ready {
			return fmt.Errorf("%w: Rebind on a pinned log (FlushToNAND first)", ErrBadConfig)
		}
	}
	l.cfg.EIDs = append(l.cfg.EIDs[:0], eids...) // Open made the slice the log's own
	l.cfg.BufferOffset = bufferOffset
	for i, h := range l.halves {
		h.eid = eids[i]
		h.bufOff = bufferOffset + i*l.cfg.SegmentBytes
	}
	return nil
}
