package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"twobssd/internal/core"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// Config assembles a DB.
type Config struct {
	// DataFS stores SST files. LogFS stores WAL files; the paper's
	// Fig 9 setup puts the log on the device under test and the data
	// elsewhere ("only WAL logs are written to a log device").
	DataFS *vfs.FS
	LogFS  *vfs.FS

	// WALMode selects the commit protocol; BA needs SSD + EIDs.
	WALMode wal.CommitMode
	SSD     *core.TwoBSSD
	// EIDs/BufferOffset carve WAL slots out of the BA-buffer. The EIDs
	// come in pairs, one pair per slot; at most two logs pin at once
	// (the active memtable's and the immutable one's; Recover unpins a
	// recovered log before the next opens), so two pairs rotate safely. Log file n takes slot n%(len(EIDs)/2) and
	// double-buffers across its pair in segments of logSegmentPages
	// pages (walConfig): it pins the segment it reaches and BA_FLUSHes
	// the one it left in the background, so a BA log pins, flushes and
	// dumps at most two segments.
	EIDs         []core.EID
	BufferOffset int

	// MemtableBytes triggers rotation; WALBytes sizes each log file
	// (rounded up to whole segments in BA mode). WALBytes must exceed
	// MemtableBytes.
	MemtableBytes int
	WALBytes      int

	// Compaction shape.
	L0Trigger int   // L0 table count triggering compaction
	LevelBase int64 // max bytes of L1; each level down is x10

	// Host CPU costs per operation (calibration knobs).
	ReadCPU  sim.Duration
	WriteCPU sim.Duration
}

const (
	maxLevels       = 4   // depth of the tree, L0 included
	blockCacheSlots = 256 // cached decoded blocks
)

func (c *Config) fillDefaults() error {
	if c.DataFS == nil {
		return errors.New("lsm: DataFS required")
	}
	if c.LogFS == nil {
		c.LogFS = c.DataFS
	}
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 256 << 10
	}
	if c.WALBytes <= 0 {
		c.WALBytes = 2 * c.MemtableBytes
	}
	if c.WALBytes <= c.MemtableBytes {
		return errors.New("lsm: WALBytes must exceed MemtableBytes")
	}
	if c.L0Trigger <= 0 {
		c.L0Trigger = 4
	}
	if c.LevelBase <= 0 {
		c.LevelBase = 4 << 20
	}
	if c.ReadCPU <= 0 {
		c.ReadCPU = 2 * sim.Microsecond
	}
	if c.WriteCPU <= 0 {
		c.WriteCPU = 2 * sim.Microsecond
	}
	if c.WALMode == wal.BA {
		if c.SSD == nil || len(c.EIDs) < 4 || len(c.EIDs)%2 != 0 {
			return errors.New("lsm: BA mode needs SSD and two or more pairs of EIDs")
		}
	}
	return nil
}

// Stats aggregates engine counters.
type Stats struct {
	MemtableRotations    uint64
	Flushes              uint64
	Compactions          uint64
	CacheHits, CacheMiss uint64
	StallTime            sim.Duration
}

// DB is the LSM engine.
type DB struct {
	env *sim.Env
	cfg Config

	cache *blockCache
	seq   uint64

	mem      *memtable
	imm      *memtable
	walAct   *wal.Log
	actFile  *vfs.File
	rotation int // number of the next log file
	fileSeq  int

	levels [maxLevels][]*table

	wlock   *sim.Resource
	immDone *sim.Signal
	// compactLock admits one flush process into maybeCompact at a time:
	// a flush clears imm before it compacts, so the next flush can finish
	// while this one is still merging the tables both would pick.
	compactLock *sim.Resource

	// Reader/compaction coordination: compaction replaces level slices
	// (never mutates visible elements), so readers work on a snapshot.
	// Obsolete SST files are reclaimed only when no reader is active.
	activeReaders int
	obsolete      []string
	// memSpares holds the chunks of flushed memtables for the next
	// memtables to carve from.
	memSpares memChunks

	// writers holds idle SST writers; a flush and a compaction may each
	// be building an image. mergeBufs is compaction's scratch, one
	// buffer per merge input (compactLock admits one merge at a time).
	writers   []*sstWriter
	mergeBufs [][]byte

	// encBuf is the WAL-record encoding scratch. Writers hold wlock
	// across encode+Append, and wal.Append copies the payload out
	// before returning, so one buffer serves all writers.
	encBuf []byte

	stats Stats
}

// encScratch returns an n-byte slice of the encode scratch, growing it
// as needed. Callers must hold wlock.
func (db *DB) encScratch(n int) []byte {
	if cap(db.encBuf) < n {
		db.encBuf = make([]byte, n+n/2)
	}
	return db.encBuf[:n]
}

// Open creates or recovers a DB. Existing WAL files on LogFS are
// replayed (committed records only) into the immutable memtable, which
// a background flush writes out (recoverLogs).
func Open(env *sim.Env, p *sim.Proc, cfg Config) (*DB, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	db := &DB{
		env:         env,
		cfg:         cfg,
		cache:       newBlockCache(blockCacheSlots),
		wlock:       env.NewResource("lsm.write", 1),
		immDone:     env.NewSignal("lsm.immdone"),
		compactLock: env.NewResource("lsm.compact", 1),
	}
	db.mem = newMemtable(1, &db.memSpares)
	// No manifest reopens the SSTs a previous incarnation left on
	// DataFS, but new tables must not take their names.
	for _, name := range cfg.DataFS.List() {
		if n, ok := fileNum(name, sstName); ok {
			db.fileSeq = max(db.fileSeq, n)
		}
	}
	rec, logs, err := db.recoverLogs(p)
	if err != nil {
		return nil, err
	}
	if err := db.newWAL(p); err != nil {
		return nil, err
	}
	if logs != nil {
		db.startFlush(rec, logs)
	}
	return db, nil
}

// Stats returns a snapshot of counters (cache stats folded in).
func (db *DB) Stats() Stats {
	s := db.stats
	s.CacheHits = db.cache.hits
	s.CacheMiss = db.cache.miss
	return s
}

// writer returns an idle SST writer, or a new one.
func (db *DB) writer() *sstWriter {
	if k := len(db.writers); k > 0 {
		w := db.writers[k-1]
		db.writers = db.writers[:k-1]
		return w
	}
	return newSSTWriter()
}

// idleWriter resets w and keeps it for the next image.
func (db *DB) idleWriter(w *sstWriter) {
	w.reset()
	db.writers = append(db.writers, w)
}

// walName formats a log file name.
func walName(n int) string { return fmt.Sprintf("wal-%06d", n) }

// sstName formats an SST file name.
func sstName(n int) string { return fmt.Sprintf("sst-%06d", n) }

// fileNum returns the number n for which name == format(n), if any.
func fileNum(name string, format func(int) string) (int, bool) {
	prefix := strings.TrimSuffix(format(0), "000000")
	n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	return n, err == nil && format(n) == name
}

// immLog is a log file holding records of the immutable memtable. The
// flush that writes the memtable's SST retires it.
type immLog struct {
	log  *wal.Log
	file *vfs.File
}

// logSegmentPages is a BA log's segment: the unit it pins, BA_FLUSHes
// and dumps. The log pins the next segment in the foreground when it
// crosses into it and flushes the one it left in the background, so a
// smaller segment shortens the cut's dump and recovery's unpin. Each
// crossing spawns the background flush with a body bound once per
// half, so allocations do not grow with the crossing count. Swept on
// kv-ba (seed 1, --seconds 15; one 256-page memtable window read
// 1.117 ms and 56.6 µs) and on fig9's lsm 1 KB 2B-SSD cell (quick
// scale, ops/s; ASYNC reads 643 k):
//
//	pages  sim_recovery_ms  sim_op_tail_us  host_allocs_per_op  fig9 1 KB
//	    1            0.404            34.8              0.5103       79 k
//	    2            0.3615           30.9              0.5101      182 k
//	    4            0.3615           30.8              0.5101      348 k
//	    8            0.3615           33.8              0.5101      519 k
//	   16            0.3615           40.8              0.5101      537 k
//	   32            0.389            47.5              0.5101      536 k
//	   64            0.448            52.3              0.5101      532 k
//
// Recovery and allocations are flat from 2 to 16 pages, so the tail
// and fig9 pick the size. Below 16 pages a 1 KB commit stream wraps
// onto a half whose background flush has not landed and waits for it:
// 21 times in fig9's cell at 8 pages, 99 times at 4, where the cell
// falls to 0.54 of ASYNC and TestFig9Shapes fails. So it stays 16,
// trading kv-ba's tail for the 1 KB throughput. It is a constant, not
// an option.
const logSegmentPages = 16

// logSegment is a BA log's segment size: logSegmentPages pages, capped
// at MemtableBytes rounded up to whole pages. A record larger than a
// segment fails with wal.ErrTooLarge.
func (db *DB) logSegment() int {
	ps := db.cfg.SSD.PageSize()
	return min(logSegmentPages, (db.cfg.MemtableBytes+ps-1)/ps) * ps
}

// logBytes is a log file's capacity: WALBytes, rounded up in BA mode
// to whole segments, so no pinned segment runs past the file's pages
// onto a neighbour's.
func (db *DB) logBytes() int64 {
	n := db.cfg.WALBytes
	if db.cfg.WALMode == wal.BA {
		seg := db.logSegment()
		n = (n + seg - 1) / seg * seg
	}
	return int64(n)
}

// walConfig places log file number n, held in f. A BA log takes
// BA-buffer slot n%(len(EIDs)/2): the slot's pair of EIDs and two
// segments of buffer, one per EID.
func (db *DB) walConfig(f *vfs.File, n int) wal.Config {
	cfg := wal.Config{Mode: db.cfg.WALMode, File: f}
	if db.cfg.WALMode == wal.BA {
		slot := n % (len(db.cfg.EIDs) / 2)
		seg := db.logSegment()
		cfg.SSD = db.cfg.SSD
		cfg.EIDs = db.cfg.EIDs[2*slot : 2*slot+2]
		cfg.SegmentBytes = seg
		cfg.BufferOffset = db.cfg.BufferOffset + slot*2*seg
	}
	return cfg
}

// recoverLogs replays the WAL files a previous incarnation left, oldest
// first, into one memtable and returns it with those logs, for Open to
// hand to the background flush as imm: the DB serves the replayed
// records at once, and the logs stay until their SST lands. New logs
// are numbered past the highest recovered one.
func (db *DB) recoverLogs(p *sim.Proc) (*memtable, []immLog, error) {
	var nums []int
	for _, name := range db.cfg.LogFS.List() {
		if n, ok := fileNum(name, walName); ok {
			nums = append(nums, n)
		}
	}
	if len(nums) == 0 {
		return nil, nil, nil
	}
	sort.Ints(nums)
	rec := newMemtable(2, &db.memSpares)
	logs := make([]immLog, 0, len(nums))
	for _, n := range nums {
		name := walName(n)
		f, err := db.cfg.LogFS.Open(name)
		if err != nil {
			return nil, nil, err
		}
		l, err := wal.Open(db.env, db.walConfig(f, n))
		if err != nil {
			return nil, nil, err
		}
		err = l.Recover(p, func(lsn wal.LSN, payload []byte) error {
			typ, key, value, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if typ != recPut {
				return fmt.Errorf("lsm: %s@%d: unknown record type %d", name, lsn, typ)
			}
			db.seq++
			rec.add(key, db.seq, value)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		logs = append(logs, immLog{l, f})
	}
	db.rotation = nums[len(nums)-1] + 1
	return rec, logs, nil
}

// newWAL opens a fresh log for the active memtable.
func (db *DB) newWAL(p *sim.Proc) error {
	f, err := db.cfg.LogFS.Create(walName(db.rotation), db.logBytes())
	if err != nil {
		return err
	}
	l, err := wal.Open(db.env, db.walConfig(f, db.rotation))
	if err != nil {
		return err
	}
	db.walAct, db.actFile = l, f
	db.rotation++
	return nil
}

// recPut is the type byte of the engine's one WAL record.
const recPut = byte(1)

func encodeRecordInto(out []byte, key, value []byte) []byte {
	out[0] = recPut
	binary.LittleEndian.PutUint32(out[1:], uint32(len(key)))
	copy(out[5:], key)
	copy(out[5+len(key):], value)
	return out
}

func decodeRecord(payload []byte) (typ byte, key, value []byte, err error) {
	if len(payload) < 5 {
		return 0, nil, nil, errors.New("lsm: short WAL record")
	}
	typ = payload[0]
	klen := int(binary.LittleEndian.Uint32(payload[1:]))
	if 5+klen > len(payload) {
		return 0, nil, nil, errors.New("lsm: bad WAL record")
	}
	return typ, payload[5 : 5+klen], payload[5+klen:], nil
}

// Put inserts or overwrites a key durably (per the WAL commit mode).
func (db *DB) Put(p *sim.Proc, key, value []byte) error {
	p.Sleep(db.cfg.WriteCPU)
	db.wlock.Acquire(p)
	// Rotating an empty memtable frees nothing: a record that alone
	// reaches MemtableBytes goes to the fresh log, or fails there.
	if db.mem.len() > 0 && db.mem.sizeBytes()+len(key)+len(value) >= db.cfg.MemtableBytes {
		if err := db.rotate(p); err != nil {
			db.wlock.Release()
			return err
		}
	}
	rec := encodeRecordInto(db.encScratch(1+4+len(key)+len(value)), key, value)
	lsn, err := db.walAct.Append(p, rec)
	if errors.Is(err, wal.ErrLogFull) && db.mem.len() > 0 {
		// A BA log pads to each segment boundary a record would
		// straddle, so it can fill its file before the memtable's
		// charge reaches MemtableBytes.
		if err = db.rotate(p); err == nil {
			lsn, err = db.walAct.Append(p, rec)
		}
	}
	if err != nil {
		db.wlock.Release()
		return err
	}
	db.seq++
	db.mem.add(key, db.seq, value)
	db.wlock.Release()
	// Commit outside the write lock so concurrent committers can share
	// a group flush (Sync mode) or overlap BA_SYNCs.
	return db.walAct.Commit(p, lsn)
}

// rotate moves the active memtable to immutable and starts a
// background flush. Called with wlock held. If a previous flush is
// still running the writer stalls (RocksDB's two-memtable rule).
func (db *DB) rotate(p *sim.Proc) error {
	start := db.env.Now()
	for db.imm != nil {
		db.immDone.Wait(p)
	}
	db.stats.StallTime += sim.Duration(db.env.Now() - start)
	imm, logs := db.mem, []immLog{{db.walAct, db.actFile}}
	seed := int64(db.rotation) + 100
	if err := db.newWAL(p); err != nil {
		return err
	}
	db.mem = newMemtable(seed, &db.memSpares)
	db.stats.MemtableRotations++
	db.startFlush(imm, logs)
	return nil
}

// startFlush makes imm the immutable memtable and flushes it in the
// background (flushImm). rotate and Open, with what recoverLogs
// replayed, are its callers; logs are the files holding imm's records.
func (db *DB) startFlush(imm *memtable, logs []immLog) {
	db.imm = imm
	db.env.Go("lsm.flush", func(w *sim.Proc) {
		if err := db.flushImm(w, imm, logs); err != nil {
			// Power died under the background flush (fault injection):
			// the memtable's logs survive on disk and recovery replays
			// them; anything else is a modeling bug.
			if !errors.Is(err, core.ErrPowerIsOff) {
				panic(fmt.Sprintf("lsm: flush: %v", err))
			}
		}
	})
}

// flushImm writes the immutable memtable as an L0 SST, then retires
// the logs holding its records.
func (db *DB) flushImm(p *sim.Proc, imm *memtable, logs []immLog) error {
	if err := db.writeSST(p, imm, 0); err != nil {
		return err
	}
	// The SST is durable: the logs are obsolete. Unpin (BA) and delete.
	for _, l := range logs {
		if err := l.log.FlushToNAND(p); err != nil {
			return err
		}
		if err := db.cfg.LogFS.Remove(l.file.Name()); err != nil {
			return err
		}
	}
	db.imm = nil
	imm.release()
	db.stats.Flushes++
	db.immDone.Fire()
	db.compactLock.Acquire(p)
	defer db.compactLock.Release()
	return db.maybeCompact(p)
}

// writeSST serializes a memtable (newest version per key) into a new
// SST at the given level.
func (db *DB) writeSST(p *sim.Proc, m *memtable, level int) error {
	w := db.writer()
	defer db.idleWriter(w)
	var lastKey []byte
	for n := m.first(); n != nil; n = n.next[0] {
		if lastKey != nil && bytes.Equal(n.key, lastKey) {
			continue // older version of the same key
		}
		lastKey = n.key
		w.add(n.key, n.seq, n.value)
	}
	if w.count == 0 {
		return nil
	}
	t, err := db.writeTable(p, w)
	if err != nil {
		return err
	}
	db.levels[level] = append(db.levels[level], t)
	return nil
}

// writeTable writes w's image to a new file on DataFS, opens it and
// resets w for the next image.
func (db *DB) writeTable(p *sim.Proc, w *sstWriter) (*table, error) {
	img := w.finish()
	db.fileSeq++
	num := db.fileSeq // another flush or compaction may take the next number while this one yields below
	f, err := db.cfg.DataFS.Create(sstName(num), int64(len(img)))
	if err != nil {
		return nil, err
	}
	if err := f.WriteAt(p, 0, img); err != nil {
		return nil, err
	}
	if err := f.Sync(p); err != nil {
		return nil, err
	}
	t, err := openTable(p, f, num)
	if err != nil {
		return nil, err
	}
	t.setBounds(w.first, w.last)
	w.reset()
	return t, nil
}

// snapshotLevels captures the current table sets. Compaction only
// replaces whole slices, so the snapshot stays internally consistent.
func (db *DB) snapshotLevels() [maxLevels][]*table { return db.levels }

// beginRead/endRead bracket table reads so obsolete files are only
// reclaimed when nobody can still be reading them.
func (db *DB) beginRead() { db.activeReaders++ }

func (db *DB) endRead() {
	db.activeReaders--
	if db.activeReaders > 0 {
		return
	}
	if len(db.obsolete) > 0 {
		names := db.obsolete
		db.obsolete = nil
		for _, n := range names {
			if db.cfg.DataFS.Exists(n) {
				if err := db.cfg.DataFS.Remove(n); err != nil {
					panic(fmt.Sprintf("lsm: reclaim %s: %v", n, err))
				}
			}
		}
	}
}

// Get returns the newest value, or found=false.
func (db *DB) Get(p *sim.Proc, key []byte) (value []byte, found bool, err error) {
	p.Sleep(db.cfg.ReadCPU)
	if v, ok := db.mem.get(key); ok {
		return db.hit(v)
	}
	if db.imm != nil {
		if v, ok := db.imm.get(key); ok {
			return db.hit(v)
		}
	}
	db.beginRead()
	defer db.endRead()
	levels := db.snapshotLevels()
	// L0 newest-first (tables appended in age order).
	for i := len(levels[0]) - 1; i >= 0; i-- {
		t := levels[0][i]
		if !t.overlaps(key, key) {
			continue
		}
		e, ok, err := t.get(p, db.cache, key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return db.hit(e.value)
		}
	}
	for lvl := 1; lvl < len(levels); lvl++ {
		for _, t := range levels[lvl] {
			if !t.overlaps(key, key) {
				continue
			}
			e, ok, err := t.get(p, db.cache, key)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return db.hit(e.value)
			}
		}
	}
	return nil, false, nil
}

// hit returns a copy of a found value.
func (db *DB) hit(v []byte) ([]byte, bool, error) {
	return append([]byte(nil), v...), true, nil
}

// FlushAll forces the active memtable to an SST and drains the WAL —
// a clean shutdown barrier.
func (db *DB) FlushAll(p *sim.Proc) error {
	db.wlock.Acquire(p)
	defer db.wlock.Release()
	for db.imm != nil {
		db.immDone.Wait(p)
	}
	if db.mem.len() > 0 {
		if err := db.rotate(p); err != nil {
			return err
		}
		for db.imm != nil {
			db.immDone.Wait(p)
		}
	}
	return nil
}
