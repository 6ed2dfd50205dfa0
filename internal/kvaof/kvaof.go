// Package kvaof is a Redis-like in-memory key-value store with an
// append-only file (AOF): a single-threaded command loop, a hash
// dictionary, and one log record per write command.
//
// Per the paper's port (Section IV-B) the BA variant sizes the AOF
// window to the whole BA-buffer with NO double buffering, preserving
// Redis's single-threaded design: when the pinned window fills, the
// command stalls while the segment flushes and the next one pins.
package kvaof

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// Config assembles a store.
type Config struct {
	// Log places the AOF: the segment ring (FS, Ring, SegmentFileBytes —
	// their product is the AOF's capacity), the commit mode and, in BA
	// mode, the SSD, entry and window (per the paper, ONE entry over the
	// whole BA-buffer — no double buffering). The store supplies the name.
	Log wal.Config

	ReadCPU  sim.Duration
	WriteCPU sim.Duration
}

func (c *Config) fillDefaults() error {
	if c.Log.FS == nil {
		return errors.New("kvaof: Log.FS required")
	}
	c.Log.Name = aofName
	if c.ReadCPU <= 0 {
		c.ReadCPU = 1 * sim.Microsecond
	}
	if c.WriteCPU <= 0 {
		c.WriteCPU = 1500 * sim.Nanosecond
	}
	return nil
}

// entry is one dictionary value. Values are boxed so a hot update
// mutates in place (reusing the buffer) instead of paying a map
// assignment — and its key-string conversion — per write.
type entry struct {
	v []byte
}

// Store is the key-value store.
type Store struct {
	env  *sim.Env
	cfg  Config
	dict map[string]*entry
	aof  *wal.Log
	// loop serializes every command: Redis's single-threaded design.
	loop *sim.Resource
	// Counters ("kvaof.*" in the obs registry, summed over every store
	// of the environment).
	cSets, cGets, cDels, cHits, cRewrites *obs.Counter
	// scratch backs AOF record encoding; safe to reuse because the
	// command loop is exclusive and wal.Append copies the payload.
	scratch []byte
}

const aofName = "appendonly.aof"

// Open creates or recovers a store: the AOF past its last rewrite is
// replayed.
func Open(env *sim.Env, p *sim.Proc, cfg Config) (*Store, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	l, err := wal.Open(env, cfg.Log)
	if err != nil {
		return nil, err
	}
	reg := obs.Of(env).Registry()
	s := &Store{
		env:       env,
		cfg:       cfg,
		dict:      make(map[string]*entry),
		aof:       l,
		loop:      env.NewResource("kvaof.loop", 1),
		cSets:     reg.Counter("kvaof.sets"),
		cGets:     reg.Counter("kvaof.gets"),
		cDels:     reg.Counter("kvaof.dels"),
		cHits:     reg.Counter("kvaof.hits"),
		cRewrites: reg.Counter("kvaof.rewrites"),
	}
	if err := s.replay(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Log exposes the AOF log for commit accounting.
func (s *Store) Log() *wal.Log { return s.aof }

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.dict) }

// Keys returns every live key in sorted order. Crash campaigns use it
// to enumerate the recovered store when hunting phantom records.
func (s *Store) Keys() []string {
	keys := make([]string, 0, len(s.dict))
	for k := range s.dict {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AOF record encoding.
const (
	cmdSet    = byte(1)
	cmdDel    = byte(2)
	cmdIncr   = byte(3)
	cmdAppend = byte(4)
)

// encodeCmd builds one AOF record in the store's scratch buffer; the
// result is valid until the next encodeCmd call.
func (s *Store) encodeCmd(op byte, key, value []byte) []byte {
	need := 5 + len(key) + len(value)
	if cap(s.scratch) < need {
		s.scratch = make([]byte, need)
	}
	out := s.scratch[:need]
	out[0] = op
	binary.LittleEndian.PutUint32(out[1:], uint32(len(key)))
	copy(out[5:], key)
	copy(out[5+len(key):], value)
	return out
}

func decodeCmd(b []byte) (op byte, key, value []byte, err error) {
	if len(b) < 5 {
		return 0, nil, nil, errors.New("kvaof: short record")
	}
	klen := int(binary.LittleEndian.Uint32(b[1:]))
	if 5+klen > len(b) {
		return 0, nil, nil, errors.New("kvaof: bad record")
	}
	return b[0], b[5 : 5+klen], b[5+klen:], nil
}

// Set stores key=value durably (per the AOF commit mode). All command
// work happens inside the single-threaded loop, Redis-style.
func (s *Store) Set(p *sim.Proc, key, value []byte) error {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.WriteCPU)
	if err := s.logCmd(p, cmdSet, key, value); err != nil {
		return err
	}
	s.put(key, value)
	s.cSets.Inc()
	return nil
}

// Del removes a key durably.
func (s *Store) Del(p *sim.Proc, key []byte) error {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.WriteCPU)
	if err := s.logCmd(p, cmdDel, key, nil); err != nil {
		return err
	}
	delete(s.dict, string(key))
	s.cDels.Inc()
	return nil
}

// Get returns the value for key. The returned bytes alias store
// memory and are valid until the next write of that key; callers that
// keep them across writes must copy.
func (s *Store) Get(p *sim.Proc, key []byte) ([]byte, bool) {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.ReadCPU)
	s.cGets.Inc()
	e, ok := s.dict[string(key)]
	if !ok {
		return nil, false
	}
	s.cHits.Inc()
	return e.v, true
}

// put installs key=value, reusing the existing entry's buffer when the
// key is already present (a map lookup on a []byte key does not
// allocate; a map assignment would).
func (s *Store) put(key, value []byte) {
	if e, ok := s.dict[string(key)]; ok {
		e.v = append(e.v[:0], value...)
		return
	}
	s.dict[string(key)] = &entry{v: append([]byte(nil), value...)}
}

// lookup returns the entry for key, creating it if missing.
func (s *Store) lookup(key []byte) *entry {
	if e, ok := s.dict[string(key)]; ok {
		return e
	}
	e := &entry{}
	s.dict[string(key)] = e
	return e
}

// logCmd appends and commits one AOF record, rewriting the AOF first
// when it has grown to the point where one more record would leave the
// ring no room for a rewrite (Redis's BGREWRITEAOF, done inline:
// single-threaded).
func (s *Store) logCmd(p *sim.Proc, op byte, key, value []byte) error {
	// A snapshot is one SET per live key, and every live key's value was
	// logged since the last snapshot began: it needs no more room than
	// the log written since the checkpoint.
	need := int64(wal.RecordOverhead + 5 + len(key) + len(value))
	tail := s.aof.AppendOff()
	free := int64(s.cfg.Log.Ring)*s.cfg.Log.SegmentFileBytes - (tail - int64(s.aof.RetainedLSN()))
	if free-need < tail-int64(s.aof.CheckpointLSN())+need {
		if err := s.rewrite(p); err != nil {
			return err
		}
	}
	lsn, err := s.aof.Append(p, s.encodeCmd(op, key, value))
	if err != nil {
		return err
	}
	return s.aof.Commit(p, lsn)
}

// rewrite compacts the AOF: snapshot, then checkpoint. One SET per live
// key, in key order, goes onto the tail of the log; once the snapshot is
// durable the checkpoint moves to where it began and frees every segment
// below. A crash before that replays the old log plus a snapshot prefix,
// which is the same dictionary.
func (s *Store) rewrite(p *sim.Proc) error {
	start := wal.LSN(s.aof.AppendOff())
	for _, k := range s.Keys() {
		if _, err := s.aof.Append(p, s.encodeCmd(cmdSet, []byte(k), s.dict[k].v)); err != nil {
			return fmt.Errorf("kvaof: rewrite overflow: %w", err)
		}
	}
	if err := s.aof.Drain(p); err != nil {
		return err
	}
	if err := s.aof.Checkpoint(p, start); err != nil {
		return err
	}
	s.cRewrites.Inc()
	return nil
}

// replay rebuilds the dictionary from the AOF past its checkpoint.
func (s *Store) replay(p *sim.Proc) error {
	return s.aof.Recover(p, func(_ wal.LSN, payload []byte) error {
		op, key, value, err := decodeCmd(payload)
		if err != nil {
			return err
		}
		switch op {
		case cmdSet:
			s.put(key, value)
		case cmdDel:
			delete(s.dict, string(key))
		case cmdIncr:
			s.applyIncr(key)
		case cmdAppend:
			s.applyAppend(key, value)
		}
		return nil
	})
}

func (s *Store) applyIncr(key []byte) int64 {
	e := s.lookup(key)
	n, _ := strconv.ParseInt(string(e.v), 10, 64)
	n++
	e.v = strconv.AppendInt(e.v[:0], n, 10)
	return n
}

func (s *Store) applyAppend(key, value []byte) int {
	e := s.lookup(key)
	e.v = append(e.v, value...)
	return len(e.v)
}

// Incr atomically increments the integer value at key (INCR), starting
// from 0 for a missing key, and returns the new value.
func (s *Store) Incr(p *sim.Proc, key []byte) (int64, error) {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.WriteCPU)
	if err := s.logCmd(p, cmdIncr, key, nil); err != nil {
		return 0, err
	}
	s.cSets.Inc()
	return s.applyIncr(key), nil
}

// Append appends value to the string at key (APPEND) and returns the
// new length.
func (s *Store) Append(p *sim.Proc, key, value []byte) (int, error) {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.WriteCPU)
	if err := s.logCmd(p, cmdAppend, key, value); err != nil {
		return 0, err
	}
	s.cSets.Inc()
	return s.applyAppend(key, value), nil
}

// Exists reports whether key is present (EXISTS).
func (s *Store) Exists(p *sim.Proc, key []byte) bool {
	s.loop.Acquire(p)
	defer s.loop.Release()
	p.Sleep(s.cfg.ReadCPU)
	s.cGets.Inc()
	_, ok := s.dict[string(key)]
	return ok
}
