package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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
	// EIDs/BufferOffset carve WAL slots out of the BA-buffer. Per the
	// paper each RocksDB log file takes a quarter of the BA-buffer and
	// at most two live at once; four slots rotate safely.
	EIDs         []core.EID
	BufferOffset int

	// MemtableBytes triggers rotation; WALBytes sizes each log file
	// (and each BA-buffer slot). WALBytes must exceed MemtableBytes.
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
		if c.SSD == nil || len(c.EIDs) < 2 {
			return errors.New("lsm: BA mode needs SSD and >= 2 EIDs")
		}
	}
	return nil
}

// Stats aggregates engine counters.
type Stats struct {
	Puts, Gets, Deletes  uint64
	GetHits              uint64
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
	walImm   *wal.Log
	actFile  *vfs.File
	immFile  *vfs.File
	rotation int
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
	// retired holds flushed memtables whose chunks wait for the read
	// epoch to close: an open Iterator holds memtable nodes across
	// yields. Released chunks go to memSpares for the next memtables.
	retired   []*memtable
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
// replayed (committed records only) into the new memtable.
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
	if err := db.recoverLogs(p); err != nil {
		return nil, err
	}
	if err := db.newWAL(p); err != nil {
		return nil, err
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

// retire releases a flushed memtable's chunks now, or at the end of
// the read epoch if one is open.
func (db *DB) retire(m *memtable) {
	if db.activeReaders > 0 {
		db.retired = append(db.retired, m)
		return
	}
	m.release()
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

// recoverLogs replays any WAL files left by a previous incarnation,
// flushes the result to an SST and removes the logs.
func (db *DB) recoverLogs(p *sim.Proc) error {
	var names []string
	for _, n := range db.cfg.LogFS.List() {
		if strings.HasPrefix(n, "wal-") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil
	}
	rec := newMemtable(2, &db.memSpares)
	for _, name := range names {
		f, err := db.cfg.LogFS.Open(name)
		if err != nil {
			return err
		}
		cfg := wal.Config{Mode: db.cfg.WALMode, File: f}
		if db.cfg.WALMode == wal.BA {
			cfg.SSD = db.cfg.SSD
			cfg.EIDs = db.cfg.EIDs[:1]
			cfg.SegmentBytes = db.cfg.WALBytes
		}
		l, err := wal.Open(db.env, cfg)
		if err != nil {
			return err
		}
		err = l.Recover(p, func(_ wal.LSN, payload []byte) error {
			if len(payload) > 0 && payload[0] == recBatch {
				ops, err := decodeBatchRecord(payload)
				if err != nil {
					return err
				}
				for _, o := range ops {
					db.seq++
					if o.typ == recDelete {
						rec.add(o.key, db.seq, nil)
					} else {
						rec.add(o.key, db.seq, o.value)
					}
				}
				return nil
			}
			typ, key, value, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			db.seq++
			if typ == recDelete {
				rec.add(key, db.seq, nil)
			} else {
				rec.add(key, db.seq, value)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if rec.len() > 0 {
		if err := db.writeSST(p, rec, 0); err != nil {
			return err
		}
	}
	db.retire(rec)
	for _, name := range names {
		if err := db.cfg.LogFS.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// newWAL opens a fresh log for the active memtable.
func (db *DB) newWAL(p *sim.Proc) error {
	name := walName(db.rotation)
	f, err := db.cfg.LogFS.Create(name, int64(db.cfg.WALBytes))
	if err != nil {
		return err
	}
	cfg := wal.Config{
		Mode: db.cfg.WALMode,
		File: f,
	}
	if db.cfg.WALMode == wal.BA {
		slot := db.rotation % len(db.cfg.EIDs)
		cfg.SSD = db.cfg.SSD
		cfg.EIDs = []core.EID{db.cfg.EIDs[slot]}
		cfg.SegmentBytes = db.cfg.WALBytes
		cfg.BufferOffset = db.cfg.BufferOffset + slot*db.cfg.WALBytes
	}
	l, err := wal.Open(db.env, cfg)
	if err != nil {
		return err
	}
	db.walAct, db.actFile = l, f
	db.rotation++
	return nil
}

// Record types in the WAL payload.
const (
	recPut    = byte(1)
	recDelete = byte(2)
	recBatch  = byte(3)
)

func encodeRecord(typ byte, key, value []byte) []byte {
	return encodeRecordInto(make([]byte, 1+4+len(key)+len(value)), typ, key, value)
}

func encodeRecordInto(out []byte, typ byte, key, value []byte) []byte {
	out[0] = typ
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
	return db.write(p, recPut, key, value)
}

// Delete removes a key durably.
func (db *DB) Delete(p *sim.Proc, key []byte) error {
	return db.write(p, recDelete, key, nil)
}

func (db *DB) write(p *sim.Proc, typ byte, key, value []byte) error {
	p.Sleep(db.cfg.WriteCPU)
	db.wlock.Acquire(p)
	if db.mem.sizeBytes()+len(key)+len(value) >= db.cfg.MemtableBytes {
		if err := db.rotate(p); err != nil {
			db.wlock.Release()
			return err
		}
	}
	rec := encodeRecordInto(db.encScratch(1+4+len(key)+len(value)), typ, key, value)
	lsn, err := db.walAct.Append(p, rec)
	if err != nil {
		db.wlock.Release()
		return err
	}
	db.seq++
	if typ == recDelete {
		db.mem.add(key, db.seq, nil)
	} else {
		db.mem.add(key, db.seq, value)
	}
	if typ == recPut {
		db.stats.Puts++
	} else {
		db.stats.Deletes++
	}
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
	db.imm = db.mem
	db.walImm, db.immFile = db.walAct, db.actFile
	db.mem = newMemtable(int64(db.rotation)+100, &db.memSpares)
	if err := db.newWAL(p); err != nil {
		return err
	}
	db.stats.MemtableRotations++
	imm, immWAL, immFile := db.imm, db.walImm, db.immFile
	db.env.Go("lsm.flush", func(w *sim.Proc) {
		if err := db.flushImm(w, imm, immWAL, immFile); err != nil {
			// Power died under the background flush (fault injection):
			// the memtable's WAL survives on disk and recovery replays
			// it; anything else is a modeling bug.
			if !errors.Is(err, core.ErrPowerIsOff) {
				panic(fmt.Sprintf("lsm: flush: %v", err))
			}
		}
	})
	return nil
}

// flushImm writes the immutable memtable as an L0 SST, then retires
// its WAL.
func (db *DB) flushImm(p *sim.Proc, imm *memtable, l *wal.Log, f *vfs.File) error {
	if err := db.writeSST(p, imm, 0); err != nil {
		return err
	}
	// The SST is durable: the log is obsolete. Unpin (BA) and delete.
	if err := l.FlushToNAND(p); err != nil {
		return err
	}
	if err := db.cfg.LogFS.Remove(f.Name()); err != nil {
		return err
	}
	db.imm = nil
	db.retire(imm)
	db.walImm, db.immFile = nil, nil
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
		w.add(n.key, n.seq, n.value, n.value == nil)
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

func (db *DB) endRead(p *sim.Proc) {
	db.activeReaders--
	if db.activeReaders > 0 {
		return
	}
	for i, m := range db.retired {
		m.release()
		db.retired[i] = nil
	}
	db.retired = db.retired[:0]
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
	_ = p
}

// Get returns the newest value, or found=false.
func (db *DB) Get(p *sim.Proc, key []byte) (value []byte, found bool, err error) {
	p.Sleep(db.cfg.ReadCPU)
	db.stats.Gets++
	if v, ok := db.mem.get(key, ^uint64(0)); ok {
		return db.hit(v)
	}
	if db.imm != nil {
		if v, ok := db.imm.get(key, ^uint64(0)); ok {
			return db.hit(v)
		}
	}
	db.beginRead()
	defer db.endRead(p)
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
			if e.tombstone {
				return nil, false, nil
			}
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
				if e.tombstone {
					return nil, false, nil
				}
				return db.hit(e.value)
			}
		}
	}
	return nil, false, nil
}

func (db *DB) hit(v []byte) ([]byte, bool, error) {
	if v == nil {
		return nil, false, nil // tombstone in a memtable
	}
	db.stats.GetHits++
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
