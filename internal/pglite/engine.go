package pglite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// Config assembles an engine.
type Config struct {
	// DataFS stores heap files.
	DataFS *vfs.FS

	// Log places the XLOG: the segment ring (FS — the log device under
	// test in Fig 9a / Fig 10, DataFS when nil — Ring, SegmentFileBytes),
	// the commit mode and, in BA mode, the SSD, entries and window (per
	// the paper, two entries double-buffering halves of the BA-buffer).
	// The engine supplies the name.
	Log wal.Config

	// HeapFileBytes is each table's heap capacity. The buffer pool
	// holds the whole heap: pages reach the media only at a checkpoint.
	HeapFileBytes int64
}

const (
	// checkpointFrac of the XLOG ring retained triggers a checkpoint.
	checkpointFrac = 0.8

	// Host CPU per read or scan and per commit.
	readCPU  = 3 * sim.Microsecond
	writeCPU = 4 * sim.Microsecond
)

func (c *Config) fillDefaults() error {
	if c.DataFS == nil {
		return errors.New("pglite: DataFS required")
	}
	if c.Log.FS == nil {
		c.Log.FS = c.DataFS
	}
	c.Log.Name = LogName
	if c.HeapFileBytes <= 0 {
		c.HeapFileBytes = 8 << 20
	}
	return nil
}

// Table is one relation: a heap plus a B-tree primary index.
type Table struct {
	name string
	heap *heapStore
	idx  *btree
}

// Engine is the database instance.
type Engine struct {
	env *sim.Env
	cfg Config

	tables map[string]*Table
	xlog   *wal.Log

	// Commit/checkpoint coordination: commits run shared, checkpoints
	// exclusive (a checkpoint between another transaction's append and
	// apply would truncate a committed-but-unapplied batch).
	activeCommits int
	ckptWanted    bool
	commitsIdle   *sim.Signal
	ckptDone      *sim.Signal

	// Counters ("pglite.*" in the obs registry, summed over every engine
	// of the environment; the buffer pools count "pglite.pool_*").
	cCommits, cReads, cWrites, cCheckpoints *obs.Counter

	// scanPool recycles scan scratch (key/rid staging) across calls;
	// each in-flight scan holds its own buffer, so concurrent scans
	// that park mid-read never share one.
	scanPool []*scanBuf
}

type scanBuf struct {
	keys [][]byte
	rids []rid
}

func (e *Engine) getScanBuf() *scanBuf {
	if n := len(e.scanPool); n > 0 {
		b := e.scanPool[n-1]
		e.scanPool[n-1] = nil
		e.scanPool = e.scanPool[:n-1]
		return b
	}
	return &scanBuf{}
}

func (e *Engine) putScanBuf(b *scanBuf) {
	b.keys = b.keys[:0]
	b.rids = b.rids[:0]
	e.scanPool = append(e.scanPool, b)
}

// LogName names the XLOG's ring files on Config.Log.FS.
const LogName = "xlog"

// Open creates or recovers an engine: every heap file on DataFS is
// scanned back into its table, then the transactions committed past the
// XLOG's last checkpoint are replayed (idempotent upserts).
func Open(env *sim.Env, p *sim.Proc, cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	l, err := wal.Open(env, cfg.Log)
	if err != nil {
		return nil, err
	}
	reg := obs.Of(env).Registry()
	e := &Engine{
		env:          env,
		cfg:          cfg,
		tables:       make(map[string]*Table),
		xlog:         l,
		commitsIdle:  env.NewSignal("pglite.commitsidle"),
		ckptDone:     env.NewSignal("pglite.ckptdone"),
		cCommits:     reg.Counter("pglite.commits"),
		cReads:       reg.Counter("pglite.reads"),
		cWrites:      reg.Counter("pglite.writes"),
		cCheckpoints: reg.Counter("pglite.checkpoints"),
	}
	for _, name := range cfg.DataFS.List() {
		if table, ok := strings.CutPrefix(name, heapPrefix); ok {
			if err := e.openTable(p, table); err != nil {
				return nil, err
			}
		}
	}
	if err := e.replay(p); err != nil {
		return nil, err
	}
	return e, nil
}

// heapPrefix names a table's heap file on DataFS.
const heapPrefix = "heap-"

// openTable serves a heap file an earlier engine left: a scan of its
// pages rebuilds the page count and the index.
func (e *Engine) openTable(p *sim.Proc, name string) error {
	f, err := e.cfg.DataFS.Open(heapPrefix + name)
	if err != nil {
		return err
	}
	t := e.newTable(name, f)
	if err := t.heap.scan(p, t.idx); err != nil {
		return fmt.Errorf("pglite: scan %s: %w", name, err)
	}
	return nil
}

func (e *Engine) newTable(name string, f *vfs.File) *Table {
	t := &Table{
		name: name,
		heap: newHeapStore(f, 300*sim.Nanosecond, obs.Of(e.env).Registry()),
		idx:  newBTree(),
	}
	e.tables[name] = t
	return t
}

// CreateTable declares a relation. It is idempotent: a table whose heap
// file an earlier engine left was opened, and its heap scanned, at Open.
func (e *Engine) CreateTable(name string) error {
	if _, ok := e.tables[name]; ok {
		return nil
	}
	f, err := e.cfg.DataFS.Create(heapPrefix+name, e.cfg.HeapFileBytes)
	if err != nil {
		return err
	}
	e.newTable(name, f)
	return nil
}

func (e *Engine) table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("pglite: no such table %q", name)
	}
	return t, nil
}

// ---- transactions ----

// Op codes inside a transaction batch record.
const (
	opUpsert = byte(1)
	opDelete = byte(2)
)

type op struct {
	code  byte
	table string
	key   []byte
	value []byte
}

// Txn buffers modifications until Commit; reads see committed state
// (read committed).
type Txn struct {
	e   *Engine
	ops []op
}

// Begin starts a transaction.
func (e *Engine) Begin() *Txn { return &Txn{e: e} }

// Upsert stages an insert-or-update of key in table.
func (t *Txn) Upsert(table string, key, value []byte) {
	t.ops = append(t.ops, op{
		code: opUpsert, table: table,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete stages a deletion.
func (t *Txn) Delete(table string, key []byte) {
	t.ops = append(t.ops, op{code: opDelete, table: table, key: append([]byte(nil), key...)})
}

// Get reads the committed value of key. The returned bytes alias
// engine-internal storage and must not be modified by the caller.
func (t *Txn) Get(p *sim.Proc, table string, key []byte) ([]byte, bool, error) {
	return t.e.get(p, table, key)
}

// ScanFunc streams committed rows >= start in order, up to limit,
// without materializing result slices. Key and value are valid only
// during the fn call (they alias engine-internal storage); fn returning
// false stops the scan. Deleted-but-indexed rows pass a nil value.
func (t *Txn) ScanFunc(p *sim.Proc, table string, start []byte, limit int, fn func(key, value []byte) bool) error {
	return t.e.scanVisit(p, table, start, limit, fn)
}

// beginCommit enters the shared commit section (blocked while a
// checkpoint wants or holds exclusivity).
func (e *Engine) beginCommit(p *sim.Proc) {
	for e.ckptWanted {
		e.ckptDone.Wait(p)
	}
	e.activeCommits++
}

func (e *Engine) endCommit() {
	e.activeCommits--
	if e.activeCommits == 0 {
		e.commitsIdle.Fire()
	}
}

// Commit appends the batch to XLOG, makes it durable per the commit
// mode, then applies it to the heap and index.
func (t *Txn) Commit(p *sim.Proc) error {
	e := t.e
	if len(t.ops) == 0 {
		return nil
	}
	p.Sleep(writeCPU)
	e.beginCommit(p)
	payload := encodeBatch(t.ops)
	lsn, err := e.xlog.Append(p, payload)
	if errors.Is(err, wal.ErrLogFull) {
		e.endCommit()
		if err = e.Checkpoint(p); err != nil {
			return err
		}
		e.beginCommit(p)
		lsn, err = e.xlog.Append(p, payload)
	}
	if err != nil {
		e.endCommit()
		return err
	}
	if err := e.xlog.Commit(p, lsn); err != nil {
		e.endCommit()
		return err
	}
	if err := e.apply(p, t.ops); err != nil {
		e.endCommit()
		return err
	}
	e.cCommits.Inc()
	e.cWrites.Add(uint64(len(t.ops)))
	e.endCommit()
	// Proactive checkpoint before the ring runs out of slots.
	retained := e.xlog.AppendOff() - int64(e.xlog.RetainedLSN())
	if float64(retained) > float64(int64(e.cfg.Log.Ring)*e.cfg.Log.SegmentFileBytes)*checkpointFrac {
		if err := e.Checkpoint(p); err != nil {
			return err
		}
	}
	return nil
}

// apply performs the batch's heap/index mutations (idempotent).
func (e *Engine) apply(p *sim.Proc, ops []op) error {
	for _, o := range ops {
		tab, err := e.table(o.table)
		if err != nil {
			return err
		}
		switch o.code {
		case opUpsert:
			tuple := encodeTuple(o.key, o.value)
			old, hadOld := tab.idx.Get(o.key)
			r, err := tab.heap.insert(p, tuple)
			if err != nil {
				return err
			}
			// Publish the new version before killing the old one so a
			// concurrent reader always finds a live tuple.
			tab.idx.Put(o.key, r)
			if hadOld {
				if err := tab.heap.kill(p, old); err != nil {
					return err
				}
			}
		case opDelete:
			if old, ok := tab.idx.Get(o.key); ok {
				if err := tab.heap.kill(p, old); err != nil {
					return err
				}
				tab.idx.Delete(o.key)
			}
		default:
			return fmt.Errorf("pglite: unknown op %d on %s", o.code, o.table)
		}
	}
	return nil
}

func (e *Engine) get(p *sim.Proc, table string, key []byte) ([]byte, bool, error) {
	p.Sleep(readCPU)
	e.cReads.Inc()
	tab, err := e.table(table)
	if err != nil {
		return nil, false, err
	}
	// A concurrent upsert can retire the RID between the index lookup
	// and the heap read (both yield on I/O); retry through the index.
	for try := 0; try < 8; try++ {
		r, ok := tab.idx.Get(key)
		if !ok {
			return nil, false, nil
		}
		tuple, err := tab.heap.read(p, r)
		if errors.Is(err, errDeadTuple) {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		_, v := decodeTuple(tuple)
		return v, true, nil
	}
	return nil, false, nil
}

// scanVisit streams rows to fn without materializing result slices.
// Keys alias the index's private copies (the B-tree copies on Put and
// never mutates a stored key) and values alias heap page frames; both
// are valid only during the fn call. fn returning false stops the scan.
func (e *Engine) scanVisit(p *sim.Proc, table string, start []byte, limit int, fn func(key, value []byte) bool) error {
	p.Sleep(readCPU)
	e.cReads.Inc()
	tab, err := e.table(table)
	if err != nil {
		return err
	}
	buf := e.getScanBuf()
	defer e.putScanBuf(buf)
	tab.idx.Ascend(start, func(key []byte, r rid) bool {
		buf.keys = append(buf.keys, key)
		buf.rids = append(buf.rids, r)
		return limit <= 0 || len(buf.keys) < limit
	})
	for i, r := range buf.rids {
		// A concurrent upsert can retire the RID mid-scan; re-resolve
		// through the index until a live version (or deletion) shows.
		tuple, err := tab.heap.read(p, r)
		for try := 0; errors.Is(err, errDeadTuple) && try < 8; try++ {
			nr, ok := tab.idx.Get(buf.keys[i])
			if !ok {
				break
			}
			tuple, err = tab.heap.read(p, nr)
		}
		var v []byte
		switch {
		case errors.Is(err, errDeadTuple) || tuple == nil:
			v = nil
		case err != nil:
			return err
		default:
			_, v = decodeTuple(tuple)
		}
		if !fn(buf.keys[i], v) {
			break
		}
	}
	return nil
}

// Checkpoint flushes all dirty heap pages, then checkpoints the XLOG
// past every applied batch. It runs exclusive with commits (so every
// appended batch is applied); concurrent checkpoint requests coalesce.
func (e *Engine) Checkpoint(p *sim.Proc) error {
	if e.ckptWanted {
		// Someone else is checkpointing: wait for it and piggyback.
		for e.ckptWanted {
			e.ckptDone.Wait(p)
		}
		return nil
	}
	e.ckptWanted = true
	for e.activeCommits > 0 {
		e.commitsIdle.Wait(p)
	}
	defer func() {
		e.ckptWanted = false
		e.ckptDone.Fire()
	}()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := e.tables[name].heap.checkpoint(p); err != nil {
			return err
		}
	}
	if err := e.xlog.Checkpoint(p, wal.LSN(e.xlog.AppendOff())); err != nil {
		return err
	}
	e.cCheckpoints.Inc()
	return nil
}

// replay re-applies every committed batch past the XLOG's checkpoint.
func (e *Engine) replay(p *sim.Proc) error {
	return e.xlog.Recover(p, func(_ wal.LSN, payload []byte) error {
		ops, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		for _, o := range ops {
			if err := e.CreateTable(o.table); err != nil {
				return err
			}
		}
		return e.apply(p, ops)
	})
}

// ---- encodings ----

func encodeTuple(key, value []byte) []byte {
	out := make([]byte, 4+len(key)+len(value))
	binary.LittleEndian.PutUint32(out, uint32(len(key)))
	copy(out[4:], key)
	copy(out[4+len(key):], value)
	return out
}

func decodeTuple(t []byte) (key, value []byte) {
	klen := int(binary.LittleEndian.Uint32(t))
	return t[4 : 4+klen], t[4+klen:]
}

func encodeBatch(ops []op) []byte {
	size := 4
	for _, o := range ops {
		size += 1 + 2 + len(o.table) + 4 + len(o.key) + 4 + len(o.value)
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint32(out, uint32(len(ops)))
	pos := 4
	for _, o := range ops {
		out[pos] = o.code
		binary.LittleEndian.PutUint16(out[pos+1:], uint16(len(o.table)))
		pos += 3
		copy(out[pos:], o.table)
		pos += len(o.table)
		binary.LittleEndian.PutUint32(out[pos:], uint32(len(o.key)))
		pos += 4
		copy(out[pos:], o.key)
		pos += len(o.key)
		binary.LittleEndian.PutUint32(out[pos:], uint32(len(o.value)))
		pos += 4
		copy(out[pos:], o.value)
		pos += len(o.value)
	}
	return out
}

func decodeBatch(b []byte) ([]op, error) {
	if len(b) < 4 {
		return nil, errors.New("pglite: short batch")
	}
	n := int(binary.LittleEndian.Uint32(b))
	pos := 4
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if pos+3 > len(b) {
			return nil, errors.New("pglite: truncated batch")
		}
		code := b[pos]
		tlen := int(binary.LittleEndian.Uint16(b[pos+1:]))
		pos += 3
		if pos+tlen+4 > len(b) {
			return nil, errors.New("pglite: truncated batch")
		}
		table := string(b[pos : pos+tlen])
		pos += tlen
		klen := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		if pos+klen+4 > len(b) {
			return nil, errors.New("pglite: truncated batch")
		}
		key := append([]byte(nil), b[pos:pos+klen]...)
		pos += klen
		vlen := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		if pos+vlen > len(b) {
			return nil, errors.New("pglite: truncated batch")
		}
		value := append([]byte(nil), b[pos:pos+vlen]...)
		pos += vlen
		ops = append(ops, op{code: code, table: table, key: key, value: value})
	}
	return ops, nil
}
