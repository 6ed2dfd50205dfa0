// The crash-recovery campaigns behind `bench2b crash`: for each
// storage engine ported to the 2B-SSD, sweep hundreds of deterministic
// power-loss points across the workload's virtual time and event
// classes, then verify the durability contract after every crash —
// every committed record recovered (when the capacitor dump
// persisted), and no phantom records that were never written.
//
// Each crash point builds the whole stack fresh on its own sim.Env, so
// points run in parallel through the package point runner and the
// reports are byte-identical at any -j.
package bench

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/jfs"
	"twobssd/internal/kvaof"
	"twobssd/internal/lsm"
	"twobssd/internal/oracle"
	"twobssd/internal/pglite"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// newCrashStack is the per-point device stack shared by every workload
// driver: one small 2B-SSD (core.SmallConfig) holding both data and
// log. The stack's Crash method is the Crash half of the fault.Cycle
// contract.
func newCrashStack(env *sim.Env) *stack {
	ssd := core.New(env, core.SmallConfig())
	fs := vfs.New(ssd.Device())
	return &stack{env: env, dataFS: fs, logFS: fs, ssd: ssd, mode: wal.BA}
}

// Crash cuts power and powers the drive back on. An insufficient-energy
// or torn-dump result is a legitimate modeled outcome, not a harness
// error: it reports persisted=false and the verifier only demands
// block-mode durability. What was pinned and whether the dump persisted
// is kept for tornLogExcused.
func (s *stack) Crash(p *sim.Proc) (bool, error) {
	s.pinned = s.ssd.Entries()
	_, err := s.ssd.PowerLoss(p)
	if err != nil && !errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		return false, err
	}
	s.dumpLost = err != nil
	return err == nil, s.ssd.PowerOn(p)
}

// Audit is the Audit half of the fault.Cycle contract: the self-check
// of the stack's 2B-SSD (core.TwoBSSD.Audit) — the one drive of every
// crash cycle — then, when the cycle has one (blkgc drives the block
// path bare), of the file system on it (vfs.FS.Audit). So a crash
// point whose recovery leaves the FTL's l2p and p2l out of step, a
// buffer index out of step with its ring, two pins over one buffer
// page or one LBA, or a file extent that overlaps another or leaks, is
// a violation.
func (s *stack) Audit() error {
	if err := s.ssd.Audit(); err != nil || s.dataFS == nil {
		return err
	}
	return s.dataFS.Audit()
}

// tornLogExcused judges a recovery that failed with err. A log refuses
// to come up on a torn page — the loud failure a torn page deserves.
// When the dump was lost and every unreadable page on the log device
// sat under a BA pin at the cut, the device lost the data (an
// interrupted BA_FLUSH program whose source the cut dump should have
// saved), so the point is excused: the driver scores it like any
// unpersisted dump, nothing recovered. Anything else hands err back.
func (s *stack) tornLogExcused(p *sim.Proc, err error) (bool, error) {
	if !s.dumpLost || !errors.Is(err, integrity.ErrPageCorrupt) {
		return false, err
	}
	page := make([]byte, s.logFS.PageSize())
	for _, name := range s.logFS.List() {
		f, oerr := s.logFS.Open(name)
		if oerr != nil {
			return false, oerr
		}
		for pg := 0; pg < f.Pages(); pg++ {
			rerr := f.ReadAt(p, int64(pg)*int64(len(page)), page)
			if rerr == nil {
				continue
			}
			if !errors.Is(rerr, integrity.ErrPageCorrupt) {
				return false, rerr
			}
			lba, covered := f.LBA(int64(pg)*int64(len(page))), false
			for _, e := range s.pinned {
				covered = covered || (lba >= e.LBA && lba < e.LBA+ftl.LBA(e.Pages))
			}
			if !covered {
				return false, fmt.Errorf("%w (corrupt page at lba %d was never pinned)", err, lba)
			}
		}
	}
	s.excused = true
	return true, nil
}

func crashKey(prefix string, i int) string { return fmt.Sprintf("%s-%04d", prefix, i) }

// crashValue embeds the key so a recovered record self-identifies; the
// tail pads records past one WC burst.
func crashValue(key string) string { return key + "|" + strings.Repeat("v", 40) }

// keyOf recovers the key from a record payload written by crashValue.
func keyOf(payload string) string {
	if j := strings.IndexByte(payload, '|'); j >= 0 {
		return payload[:j]
	}
	return payload
}

// cycleBuilder builds one crash point's stack and workload on its env.
type cycleBuilder = func(*sim.Env, *sim.Proc) (fault.Cycle, error)

// overwrites is the write history of an engine driver: op i writes
// version i of slot i%keys, a value of a fixed size that names its key
// and version. With keys == ops every op has a fresh key and nothing is
// ever overwritten; with a few keys and a log small enough to truncate
// every few ops, a record of a generation the checkpoint has covered
// that recovery replays puts a key back to a version older than its
// last acknowledged one — which is how a stale-generation splice shows.
type overwrites struct {
	prefix     string
	keys, size int
	newest     map[string]int // key → newest version written (acknowledged, or staged)
}

func newOverwrites(prefix string, keys, size int) *overwrites {
	return &overwrites{prefix: prefix, keys: keys, size: size, newest: map[string]int{}}
}

// value is key's content at version ver.
func (o *overwrites) value(key string, ver int) string {
	v := fmt.Sprintf("%s|%04d|", key, ver)
	return v + strings.Repeat("v", max(o.size-len(v), 0))
}

// write records op i and returns the key and value it writes.
func (o *overwrites) write(i int) (key, value string) {
	key = crashKey(o.prefix, i%o.keys)
	o.newest[key] = i
	return key, o.value(key, i)
}

// judge classifies what recovery holds for key: its newest version is
// recovered; an older version is a lost write, which the campaign
// excuses only when the capacitor dump did not persist; anything else
// was never written and is a phantom.
func (o *overwrites) judge(key, got string, recovered, phantoms *[]string) {
	newest, written := o.newest[key]
	ver := -1 // stays -1 unless got parses as a version of key
	fmt.Sscanf(got, key+"|%d|", &ver)
	switch {
	case written && got == o.value(key, newest):
		*recovered = append(*recovered, key)
	case written && ver >= 0 && ver < newest && got == o.value(key, ver):
	default:
		*phantoms = append(*phantoms, key)
	}
}

// ---- wal: raw write-ahead log, BA commit, double-buffered ----------

type walCrash struct {
	*stack
	cfg  wal.Config
	log  *wal.Log
	want map[string]string
}

func buildWALCrash(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	s := newCrashStack(env)
	f, err := s.logFS.Create("txlog", 2<<20)
	if err != nil {
		return nil, err
	}
	// Two-page segments make the workload rotate several times, so the
	// campaign also lands crash points inside BA_FLUSH page moves and
	// the NAND programs they issue — not just between commits.
	cfg := s.logConfig(f, 0, 1)
	cfg.SegmentBytes = 2 * s.ssd.PageSize()
	l, err := wal.Open(env, cfg)
	if err != nil {
		return nil, err
	}
	return &walCrash{stack: s, cfg: cfg, log: l, want: map[string]string{}}, nil
}

func (c *walCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("wal", i)
	payload := crashValue(key) + strings.Repeat("w", 160)
	c.want[key] = payload
	lsn, err := c.log.Append(p, []byte(payload))
	if err != nil {
		return "", err
	}
	return key, c.log.Commit(p, lsn)
}

// Stage appends without committing: the record sits in the WC/BA-buffer
// and may legitimately survive via the capacitor dump.
func (c *walCrash) Stage(p *sim.Proc) (string, error) {
	key := "wal-staged"
	payload := crashValue(key)
	c.want[key] = payload
	if _, err := c.log.Append(p, []byte(payload)); err != nil {
		return "", err
	}
	return key, nil
}

func (c *walCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	l, err := wal.Open(c.env, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	err = l.Recover(p, func(_ wal.LSN, payload []byte) error {
		s := string(payload)
		key := keyOf(s)
		if c.want[key] == s {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recovered, phantoms, nil
}

// ---- lsm: RocksDB-like store, WAL on BA-buffer slots ---------------

type lsmCrash struct {
	*stack
	cfg  lsm.Config
	db   *lsm.DB
	ops  int
	want map[string]string
}

func buildLSMCrash(ops int) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := lsm.Config{
			DataFS:        s.dataFS,
			LogFS:         s.logFS,
			WALMode:       wal.BA,
			SSD:           s.ssd,
			EIDs:          []core.EID{0, 1, 2, 3},
			MemtableBytes: 128 << 10,
			WALBytes:      s.ssd.Config().BABufferBytes / 4,
		}
		db, err := lsm.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &lsmCrash{stack: s, cfg: cfg, db: db, ops: ops, want: map[string]string{}}, nil
	}
}

func (c *lsmCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("lsm", i)
	value := crashValue(key)
	c.want[key] = value
	return key, c.db.Put(p, []byte(key), []byte(value))
}

// Stage: a Put is commit-or-nothing in the LSM port; no uncommitted path.
func (c *lsmCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

// Recover reopens the store, keeping the reopened DB for Audit, and
// probes every planned key.
func (c *lsmCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if c.db, err = lsm.Open(c.env, p, c.cfg); err != nil {
		return nil, nil, err
	}
	for i := 0; i < c.ops; i++ {
		key := crashKey("lsm", i)
		v, found, err := c.db.Get(p, []byte(key))
		if err != nil {
			return nil, nil, err
		}
		if !found {
			continue
		}
		if string(v) == c.want[key] {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// Audit checks the stack (stack.Audit), then the tree of the DB that
// recovery reopened (lsm.DB.Audit).
func (c *lsmCrash) Audit() error {
	if err := c.stack.Audit(); err != nil {
		return err
	}
	return c.db.Audit()
}

// ---- pglite: PostgreSQL-like engine, XLOG on the BA-buffer ---------

const pgCrashTable = "crash"

// pgCrash upserts through the engine and verifies by reopening the
// engine and scanning the table: the heap scan at Open serves what the
// last checkpoint flushed, the XLOG replay what was committed after it.
type pgCrash struct {
	*stack
	cfg  pglite.Config
	eng  *pglite.Engine
	hist *overwrites
}

func buildPGCrash(log func(*stack) wal.Config, keys, size int) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := pglite.Config{
			DataFS:        s.dataFS,
			Log:           log(s),
			HeapFileBytes: 1 << 20,
		}
		eng, err := pglite.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.CreateTable(pgCrashTable); err != nil {
			return nil, err
		}
		return &pgCrash{stack: s, cfg: cfg, eng: eng, hist: newOverwrites("pg", keys, size)}, nil
	}
}

func (c *pgCrash) Step(p *sim.Proc, i int) (string, error) {
	key, value := c.hist.write(i)
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(value))
	if err := tx.Commit(p); err != nil {
		return "", err
	}
	return key, nil
}

// Stage opens a transaction and upserts without committing: the change
// lives only in the host-side txn buffer and must never survive.
func (c *pgCrash) Stage(p *sim.Proc) (string, error) {
	key := "pg-staged"
	c.hist.newest[key] = 0
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(c.hist.value(key, 0)))
	return key, nil
}

func (c *pgCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	eng, err := pglite.Open(c.env, p, c.cfg)
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	err = eng.Begin().ScanFunc(p, pgCrashTable, nil, len(c.hist.newest)+8, func(k, v []byte) bool {
		c.hist.judge(string(k), string(v), &recovered, &phantoms)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return recovered, phantoms, nil
}

// ---- kvaof: Redis-like store, AOF pinned over one window -----------

type aofCrash struct {
	*stack
	cfg  kvaof.Config
	st   *kvaof.Store
	hist *overwrites
}

func buildAOFCrash(log func(*stack) wal.Config, keys, size int) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := kvaof.Config{Log: log(s)}
		st, err := kvaof.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &aofCrash{stack: s, cfg: cfg, st: st, hist: newOverwrites("kv", keys, size)}, nil
	}
}

func (c *aofCrash) Step(p *sim.Proc, i int) (string, error) {
	key, value := c.hist.write(i)
	return key, c.st.Set(p, []byte(key), []byte(value))
}

// Stage: every AOF command commits before it applies; no uncommitted path.
func (c *aofCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *aofCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	st, err := kvaof.Open(c.env, p, c.cfg)
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	for _, key := range st.Keys() {
		v, _ := st.Get(p, []byte(key))
		c.hist.judge(key, string(v), &recovered, &phantoms)
	}
	return recovered, phantoms, nil
}

// ---- jfs: journaling filesystem, journal on the BA-buffer ----------

// jfsCrash journals one home block per op: slot k of the history is
// block k, and the staged (never committed) write goes to block `keys`.
type jfsCrash struct {
	*stack
	cfg  jfs.Config
	st   *jfs.Store
	hist *overwrites
}

func buildJFSCrash(log func(*stack) wal.Config, keys, every int) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		home, err := s.dataFS.Create("home", int64(keys+2)*jfs.BlockSize)
		if err != nil {
			return nil, err
		}
		cfg := jfs.Config{Home: home, Log: log(s), CheckpointEvery: every}
		st, err := jfs.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &jfsCrash{stack: s, cfg: cfg, st: st, hist: newOverwrites("jfs", keys, 48)}, nil
	}
}

func (c *jfsCrash) Step(p *sim.Proc, i int) (string, error) {
	key, value := c.hist.write(i)
	tx := c.st.Begin()
	if err := tx.WriteBlock(uint32(i%c.hist.keys), []byte(value)); err != nil {
		return "", err
	}
	return key, tx.Commit(p)
}

// Stage writes one block in an open transaction and never commits it.
func (c *jfsCrash) Stage(p *sim.Proc) (string, error) {
	key := crashKey("jfs", c.hist.keys)
	c.hist.newest[key] = 0
	tx := c.st.Begin()
	if err := tx.WriteBlock(uint32(c.hist.keys), []byte(c.hist.value(key, 0))); err != nil {
		return "", err
	}
	return key, nil
}

func (c *jfsCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	st, err := jfs.Open(c.env, p, c.cfg)
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	for blk := 0; blk <= c.hist.keys; blk++ {
		data, err := st.ReadBlock(p, uint32(blk))
		if err != nil {
			return nil, nil, err
		}
		// Blocks are zero padded; an all-zero one never reached the store.
		if got := string(bytes.TrimRight(data, "\x00")); got != "" {
			c.hist.judge(crashKey("jfs", blk), got, &recovered, &phantoms)
		}
	}
	return recovered, phantoms, nil
}

// ---- blkgc: raw block path of a drive in steady-state GC -----------

// blkGCCrash overwrites a 90 % full, 16-blocks/die drive through four
// drain workers, so the FTL collects all along and the power-loss
// points land inside relocation runs (ftl.evacuate) as often as between
// them. Steps are four-page writes, a third of them into a 64-page hot
// range: the same LBA sits in the write buffer, in flight to NAND and in
// a victim under relocation at once. The block path promises an
// acknowledged write is durable whatever the capacitor dump does, so
// any page that reads anything but its newest version after recovery —
// an older version a relocation put back included — is a phantom.
type blkGCCrash struct {
	*stack
	span int      // LBAs [0, span) carry the workload
	ver  []uint32 // newest version written, per LBA
	rng  *rand.Rand
	buf  []byte
}

const (
	blkGCBurst = 4  // pages per step
	blkGCHot   = 64 // LBAs of the hot range
)

func blkGCKey(lba int) string { return fmt.Sprintf("blk-%05d", lba) }

func blkGCStamp(page []byte, lba int, ver uint32) {
	binary.LittleEndian.PutUint32(page[0:], uint32(lba))
	binary.LittleEndian.PutUint32(page[4:], ver)
}

func (c *blkGCCrash) write(p *sim.Proc, lba, pages int) error {
	ps := c.ssd.PageSize()
	for i := 0; i < pages; i++ {
		c.ver[lba+i]++
		blkGCStamp(c.buf[i*ps:], lba+i, c.ver[lba+i])
	}
	return c.ssd.Device().WritePages(p, ftl.LBA(lba), c.buf[:pages*ps])
}

func buildBlkGCCrash(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	cfg := core.SmallConfig()
	cfg.Base.Nand.BlocksPerDie = 16
	ssd := core.New(env, cfg)
	c := &blkGCCrash{
		stack: &stack{env: env, ssd: ssd},
		span:  int(float64(ssd.Device().Pages()) * 0.9),
		rng:   rand.New(rand.NewSource(0x2b55)),
		buf:   make([]byte, cfg.Base.WriteBufferPages*ssd.PageSize()),
	}
	c.ver = make([]uint32, c.span)
	for lba := 0; lba < c.span; lba += cfg.Base.WriteBufferPages {
		if err := c.write(p, lba, min(cfg.Base.WriteBufferPages, c.span-lba)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *blkGCCrash) Step(p *sim.Proc, i int) (string, error) {
	lba := c.rng.Intn(c.span - blkGCBurst)
	if i%3 == 0 {
		lba = c.rng.Intn(blkGCHot - blkGCBurst)
	}
	return blkGCKey(lba), c.write(p, lba, blkGCBurst)
}

// Stage: a block write is acknowledged-or-nothing; no uncommitted path.
func (c *blkGCCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *blkGCCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	ps := c.ssd.PageSize()
	buf := make([]byte, blkGCHot*ps)
	for lba := 0; lba < c.span; lba += blkGCHot {
		n := min(blkGCHot, c.span-lba)
		data := buf[:n*ps]
		if err := c.ssd.Device().ReadPagesInto(p, ftl.LBA(lba), data); err != nil {
			return nil, nil, err
		}
		for i := 0; i < n; i++ {
			pg := data[i*ps:]
			if binary.LittleEndian.Uint32(pg[0:]) == uint32(lba+i) && binary.LittleEndian.Uint32(pg[4:]) == c.ver[lba+i] {
				recovered = append(recovered, blkGCKey(lba+i))
			} else {
				phantoms = append(phantoms, blkGCKey(lba+i))
			}
		}
	}
	return recovered, phantoms, nil
}

// ---- campaign assembly ---------------------------------------------

// campaign rows are the sweeps of the campaign experiments: a row that
// names an oracle profile is swept by fuzz, any other by crash, and each
// says whether its experiment's -smoke variant runs it too. A crash row
// pins its committed-op count and seed and builds its workload. The lsm row
// is sized so its memtable never rotates (that path has its own
// experiment); each of pglite, kvaof and jfs has one row whose log holds
// the whole campaign and one (-ckpt) that overwrites a few keys on a
// ring so small that the engine checkpoints every few ops.
type campaign struct {
	name  string
	ops   int
	seed  uint64
	build func(ops int) cycleBuilder
	// cutDumps cuts the capacitor dump short on a subset of points
	// (fault.Crash.CutDumps).
	cutDumps bool
	smoke    bool
	fuzz     *oracle.Config // a fuzz row's oracle profile (nil: a crash row)
}

// crashRing places an engine's log on the crash stack: a ring of `ring`
// files of `pages` pages each, with BA windows of `window` pages on the
// entries given.
func crashRing(ring, pages, window int, eids ...core.EID) func(*stack) wal.Config {
	return func(s *stack) wal.Config {
		ps := s.ssd.PageSize()
		cfg := s.ringConfig(ring, int64(pages*ps), eids...)
		cfg.SegmentBytes = window * ps
		return cfg
	}
}

// fixed adapts a builder that does not depend on the op count.
func fixed(b cycleBuilder) func(int) cycleBuilder { return func(int) cycleBuilder { return b } }

// walSeg builds the segmented-WAL lifecycle engine in one commit mode.
func walSeg(mode wal.CommitMode) func(int) cycleBuilder {
	return func(ops int) cycleBuilder { return buildWalSegCrash(mode, ops) }
}

var campaigns = []campaign{
	{"wal", 48, 0x2b55c0de0001, fixed(buildWALCrash), false, false, nil},
	{"lsm", 32, 0x2b55c0de0002, buildLSMCrash, false, true, nil},
	// A fresh key per op on a 1 MB XLOG / 2 MB AOF / 1 MB journal.
	{"pglite", 32, 0x2b55c0de0003,
		func(ops int) cycleBuilder { return buildPGCrash(crashRing(2, 128, 64, 0, 1), ops, 48) }, false, true, nil},
	{"kvaof", 40, 0x2b55c0de0004,
		func(ops int) cycleBuilder { return buildAOFCrash(crashRing(2, 256, 256, 0), ops, 48) }, false, false, nil},
	{"jfs", 32, 0x2b55c0de0005,
		func(ops int) cycleBuilder { return buildJFSCrash(crashRing(2, 128, 64, 0, 1), ops, 1<<20) }, false, false, nil},
	// The checkpoint path: a few keys overwritten with versioned 1.5 KB
	// values (whole blocks for jfs) on 32-128 KB rings, so the XLOG
	// checkpoints, the AOF rewrites and the journal checkpoints every few
	// ops, the rings lap, and power cuts land on rotations, checkpoints
	// and truncations — with the dump cut short on a subset of points.
	{"pglite-ckpt", 48, 0x2b55c0de0008,
		fixed(buildPGCrash(crashRing(2, 4, 2, 0, 1), 6, 1500)), true, true, nil},
	{"kvaof-ckpt", 48, 0x2b55c0de0009,
		fixed(buildAOFCrash(crashRing(4, 4, 4, 0), 4, 1500)), true, true, nil},
	{"jfs-ckpt", 48, 0x2b55c0de000a,
		fixed(buildJFSCrash(crashRing(4, 8, 4, 0, 1), 3, 5)), true, true, nil},
	// walseg runs a full segmented-WAL lifecycle (rotation, checkpoint
	// truncation, snapshot + chain-replay recovery) on the BA path,
	// with dump cuts on a point subset so torn-tail repair runs too.
	{"walseg", 48, 0x2b55c0de0006, walSeg(wal.BA), true, true, nil},
	// blkgc has no log at all: the raw block path of a drive that is
	// collecting garbage the whole time, relocation runs in flight.
	{"blkgc", 192, 0x2b55c0de0007, fixed(buildBlkGCCrash), false, true, nil},
	// walseg on the block+flush baseline the BA path is proven against.
	{"walseg-sync", 48, 0x2b55c0de0107, walSeg(wal.Sync), false, false, nil},
	// Randomized dual-path traces against internal/oracle's reference
	// model: on an empty drive, then on one in steady-state GC.
	{name: "oracle", smoke: true, fuzz: &oracle.Config{}},
	{name: "oracle-gc", smoke: true, fuzz: &oracle.Config{GCActive: true}},
}

// campaignNames lists, in table order, the rows experiment kind
// ("crash" or "fuzz") sweeps — only its smoke rows when smoke is set.
func campaignNames(kind string, smoke bool) []string {
	var names []string
	for _, c := range campaigns {
		if (c.fuzz != nil) == (kind == "fuzz") && (c.smoke || !smoke) {
			names = append(names, c.name)
		}
	}
	return names
}

// crash is a crash row's sweep of pts points.
func (c *campaign) crash(pts int) *fault.Crash {
	return &fault.Crash{Name: c.name, Points: pts, Ops: c.ops, Seed: c.seed, Build: c.build(c.ops), CutDumps: c.cutDumps}
}

// runCampaigns sweeps pts points — crash points or fuzz seeds — over
// each named row of campaign experiment exp, or with point >= 0 runs
// that point of each alone. It streams each campaign's report, or the
// point's line, to w and returns an error when any point violated its
// contract. Points fan out through the Runner, so -j applies; the
// reports are byte-identical at any parallelism.
func runCampaigns(r *Runner, w io.Writer, exp string, names []string, pts, point int) error {
	violations := 0
	for _, name := range names {
		n, err := runRow(r, w, exp+"/"+name, name, pts, point)
		if err != nil {
			return err
		}
		violations += n
	}
	if violations > 0 {
		return fmt.Errorf("bench: %d campaign points broke the durability contract or diverged from the reference model", violations)
	}
	return nil
}

// runRow runs the named row — its sweep of pts points, or its point
// alone — at address addr, writes the report to w and returns its
// violation count.
func runRow(r *Runner, w io.Writer, addr, name string, pts, point int) (int, error) {
	for i, c := range campaigns {
		switch {
		case c.name != name:
		case c.fuzz != nil:
			return sweep(r, w, addr, oracle.Campaign(*c.fuzz, pts), point)
		default:
			return sweep(r, w, addr, campaigns[i].crash(pts).Campaign(), point)
		}
	}
	return 0, fmt.Errorf("bench: unknown campaign %q", name)
}

// sweep runs campaign c at address addr — every point, or with point
// >= 0 that point alone — writes its report or the point's line to w
// and returns the violation count.
func sweep[C any, R fault.Outcome](r *Runner, w io.Writer, addr string, c *fault.Campaign[C, R], point int) (int, error) {
	if point >= 0 {
		f, err := c.RunPoint(r.parallelFor, addr, point)
		if err != nil {
			return 0, err
		}
		n := 0
		if f.Violation() {
			n = 1
		}
		return n, f.WriteText(w)
	}
	rep, err := c.Run(r.parallelFor, addr)
	if err != nil {
		return 0, err
	}
	return len(rep.Violations()), rep.WriteText(w)
}
