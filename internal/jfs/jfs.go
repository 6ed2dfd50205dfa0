// Package jfs is a jbd2-style journaling block layer — the paper's
// other motivating workload ("2B-SSD is also a good fit for file system
// journaling", Section IV). Metadata block updates are grouped into
// transactions, committed to a write-ahead journal (block WAL or
// BA-WAL on a 2B-SSD), and checkpointed to their home locations later.
//
// The journal carries whole 4 KB blocks like ext4's jbd2, so the
// byte-vs-block logging contrast shows up differently than in the
// database engines: the win comes from commit latency, not record
// size.
package jfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// BlockSize is the journaled block granule.
const BlockSize = 4096

// Config assembles a journaled store.
type Config struct {
	// Home is the file holding the filesystem image.
	Home *vfs.File

	// Log places the journal: the segment ring (FS on the log device
	// under test, Ring, SegmentFileBytes), the commit mode and, in BA
	// mode, the SSD, entries and window. The store supplies the name.
	Log wal.Config

	// CheckpointEvery transactions, dirty journaled blocks write back
	// to their home locations and the journal checkpoints past them.
	CheckpointEvery int
}

const journalName = "journal"

// Errors reported by the journal layer.
var (
	ErrBadConfig = errors.New("jfs: invalid configuration")
	ErrOutOfHome = errors.New("jfs: block beyond home file")
)

// Store is a journaled block store.
type Store struct {
	cfg Config
	env *sim.Env
	log *wal.Log

	// pending maps block -> newest journaled-but-not-checkpointed data.
	pending map[uint32][]byte
	sinceCk int

	// mu serializes transactions (jbd2 has one running transaction).
	mu *sim.Resource

	// Counters ("jfs.*" in the obs registry, summed over every store of
	// the environment: a mount's replay count is the delta around Open).
	cTxns, cBlocks, cCheckpoints, cReplayed *obs.Counter
}

// Open creates or recovers a store: journal records past the last
// checkpoint are replayed into the pending set (crash recovery).
func Open(env *sim.Env, p *sim.Proc, cfg Config) (*Store, error) {
	if cfg.Home == nil || cfg.Log.FS == nil {
		return nil, fmt.Errorf("%w: Home and Log.FS required", ErrBadConfig)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	cfg.Log.Name = journalName
	l, err := wal.Open(env, cfg.Log)
	if err != nil {
		return nil, err
	}
	reg := obs.Of(env).Registry()
	s := &Store{
		cfg:          cfg,
		env:          env,
		log:          l,
		pending:      make(map[uint32][]byte),
		mu:           env.NewResource("jfs.txn", 1),
		cTxns:        reg.Counter("jfs.txns"),
		cBlocks:      reg.Counter("jfs.blocks_in_txn"),
		cCheckpoints: reg.Counter("jfs.checkpoints"),
		cReplayed:    reg.Counter("jfs.replayed"),
	}
	if err := s.recover(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Blocks returns the home file capacity in blocks.
func (s *Store) Blocks() uint32 { return uint32(s.cfg.Home.Capacity() / BlockSize) }

// Txn is one journaled transaction: a set of whole-block updates.
type Txn struct {
	s      *Store
	blocks map[uint32][]byte
}

// Begin opens a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{s: s, blocks: make(map[uint32][]byte)}
}

// WriteBlock stages a full-block update. Data shorter than BlockSize
// is zero padded.
func (t *Txn) WriteBlock(blk uint32, data []byte) error {
	if blk >= t.s.Blocks() {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfHome, blk, t.s.Blocks())
	}
	page := make([]byte, BlockSize)
	copy(page, data)
	t.blocks[blk] = page
	return nil
}

// sortedBlocks appends m's block numbers to dst in ascending order:
// journal bytes and home writes must not depend on map iteration order.
// (dst lets a transaction's handful of blocks sort on the stack.)
func sortedBlocks(dst []uint32, m map[uint32][]byte) []uint32 {
	for blk := range m {
		dst = append(dst, blk)
	}
	slices.Sort(dst)
	return dst
}

// encodeTxn serializes a transaction: [4]count then per block, in block
// order, [4]blockID [BlockSize]data.
func encodeTxn(blocks map[uint32][]byte) []byte {
	out := make([]byte, 4+len(blocks)*(4+BlockSize))
	binary.LittleEndian.PutUint32(out, uint32(len(blocks)))
	pos := 4
	var few [8]uint32
	for _, blk := range sortedBlocks(few[:0], blocks) {
		binary.LittleEndian.PutUint32(out[pos:], blk)
		copy(out[pos+4:], blocks[blk])
		pos += 4 + BlockSize
	}
	return out
}

func decodeTxn(payload []byte) (map[uint32][]byte, error) {
	if len(payload) < 4 {
		return nil, errors.New("jfs: short txn record")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+n*(4+BlockSize) {
		return nil, errors.New("jfs: malformed txn record")
	}
	out := make(map[uint32][]byte, n)
	pos := 4
	for i := 0; i < n; i++ {
		blk := binary.LittleEndian.Uint32(payload[pos:])
		data := append([]byte(nil), payload[pos+4:pos+4+BlockSize]...)
		out[blk] = data
		pos += 4 + BlockSize
	}
	return out, nil
}

// Commit journals the transaction durably (per the WAL mode) and makes
// its blocks visible. The home file is updated lazily at checkpoint.
func (t *Txn) Commit(p *sim.Proc) error {
	if len(t.blocks) == 0 {
		return nil
	}
	s := t.s
	s.mu.Acquire(p)
	defer s.mu.Release()
	payload := encodeTxn(t.blocks)
	lsn, err := s.log.Append(p, payload)
	if errors.Is(err, wal.ErrLogFull) {
		if err = s.checkpointLocked(p); err != nil {
			return err
		}
		lsn, err = s.log.Append(p, payload)
	}
	if err != nil {
		return err
	}
	if err := s.log.Commit(p, lsn); err != nil {
		return err
	}
	for blk, data := range t.blocks {
		s.pending[blk] = data
	}
	s.cTxns.Inc()
	s.cBlocks.Add(uint64(len(t.blocks)))
	s.sinceCk++
	if s.sinceCk >= s.cfg.CheckpointEvery {
		return s.checkpointLocked(p)
	}
	return nil
}

// ReadBlock returns a block's newest committed contents.
func (s *Store) ReadBlock(p *sim.Proc, blk uint32) ([]byte, error) {
	if blk >= s.Blocks() {
		return nil, fmt.Errorf("%w: %d", ErrOutOfHome, blk)
	}
	if data, ok := s.pending[blk]; ok {
		return append([]byte(nil), data...), nil
	}
	buf := make([]byte, BlockSize)
	if err := s.cfg.Home.ReadAt(p, int64(blk)*BlockSize, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Checkpoint writes journaled blocks to their home locations, then
// checkpoints the journal past them (which frees the segments below).
func (s *Store) Checkpoint(p *sim.Proc) error {
	s.mu.Acquire(p)
	defer s.mu.Release()
	return s.checkpointLocked(p)
}

func (s *Store) checkpointLocked(p *sim.Proc) error {
	for _, blk := range sortedBlocks(nil, s.pending) {
		if err := s.cfg.Home.WriteAt(p, int64(blk)*BlockSize, s.pending[blk]); err != nil {
			return err
		}
	}
	if err := s.cfg.Home.Sync(p); err != nil {
		return err
	}
	// Transactions are serialized: everything appended is in pending.
	if err := s.log.Checkpoint(p, wal.LSN(s.log.AppendOff())); err != nil {
		return err
	}
	s.pending = make(map[uint32][]byte)
	s.sinceCk = 0
	s.cCheckpoints.Inc()
	return nil
}

// recover replays the journal records past the last checkpoint.
func (s *Store) recover(p *sim.Proc) error {
	return s.log.Recover(p, func(_ wal.LSN, payload []byte) error {
		blocks, err := decodeTxn(payload)
		if err != nil {
			return err
		}
		for blk, data := range blocks {
			s.pending[blk] = data
		}
		s.cReplayed.Inc()
		return nil
	})
}
