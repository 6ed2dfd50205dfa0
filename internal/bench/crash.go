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
	"twobssd/internal/pglite"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// crashStackConfig scales the 2B-SSD down so one crash point costs
// milliseconds of host time: a 16 MB flash array with a 1 MB BA-buffer
// whose capacitor dump still fits the stock energy budget.
func crashStackConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 256 * 4096 // 1 MB
	return cfg
}

// newCrashStack is the per-point device stack shared by every workload
// driver: one scaled-down 2B-SSD holding both data and log. The stack's
// Crash method is the Crash half of the fault.Cycle contract.
func newCrashStack(env *sim.Env) *stack {
	ssd := core.New(env, crashStackConfig())
	fs := vfs.New(ssd.Device())
	return &stack{env: env, dataFS: fs, logFS: fs, ssd: ssd, mode: wal.BA}
}

// Crash cuts power. An insufficient-energy or torn-dump result is a
// legitimate modeled outcome, not a harness error: it reports
// persisted=false and the verifier only demands block-mode durability.
// What was pinned and whether the dump persisted is kept for
// tornLogExcused.
func (s *stack) Crash(p *sim.Proc) (bool, float64, error) {
	s.pinned = s.ssd.Entries()
	rep, err := s.ssd.PowerLoss(p)
	if err != nil && !errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		return false, 0, err
	}
	s.dumpLost = !rep.Persisted
	return rep.Persisted, rep.EnergyUsedJ, nil
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
	for _, name := range s.logFS.List() {
		f, oerr := s.logFS.Open(name)
		if oerr != nil {
			return false, oerr
		}
		for pg := 0; pg < f.Pages(); pg++ {
			_, rerr := f.ReadPages(p, pg, 1)
			if rerr == nil {
				continue
			}
			if !errors.Is(rerr, integrity.ErrPageCorrupt) {
				return false, rerr
			}
			lba, covered := f.LBA(int64(pg)*int64(s.logFS.PageSize())), false
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
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
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

func (c *lsmCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	db, err := lsm.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < c.ops; i++ {
		key := crashKey("lsm", i)
		v, found, err := db.Get(p, []byte(key))
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

// ---- pglite: PostgreSQL-like engine, XLOG on the BA-buffer ---------

const pgCrashTable = "crash"

// pgCrash upserts through the engine. With atLog unset it verifies by
// reopening the engine and scanning the table. A pglite reopened after
// a checkpoint cannot serve its heap yet (DESIGN.md §11), so the row
// that checkpoints sets atLog and verifies one layer down: the engine's
// own XLOG placement must replay exactly the batches committed past its
// durable checkpoint, each with the bytes that were committed.
type pgCrash struct {
	*stack
	cfg   pglite.Config
	eng   *pglite.Engine
	hist  *overwrites
	atLog bool
	ends  []pgBatch // atLog: every committed batch, in LSN order
}

type pgBatch struct {
	end        wal.LSN
	key, value string
}

func buildPGCrash(log func(*stack) wal.Config, keys, size int, atLog bool) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := pglite.Config{
			DataFS:          s.dataFS,
			Log:             log(s),
			HeapFileBytes:   1 << 20,
			BufferPoolPages: 256,
		}
		eng, err := pglite.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.CreateTable(pgCrashTable); err != nil {
			return nil, err
		}
		return &pgCrash{stack: s, cfg: cfg, eng: eng, hist: newOverwrites("pg", keys, size), atLog: atLog}, nil
	}
}

func (c *pgCrash) Step(p *sim.Proc, i int) (string, error) {
	key, value := c.hist.write(i)
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(value))
	if err := tx.Commit(p); err != nil {
		return "", err
	}
	if c.atLog { // one committer: the batch is the last record of the log
		c.ends = append(c.ends, pgBatch{wal.LSN(c.eng.Log().AppendOff()), key, value})
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
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	if c.atLog {
		return c.recoverAtLog(p)
	}
	eng, err := pglite.Open(c.env, p, c.cfg)
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	// Replay creates the table when any batch survived; the explicit
	// create covers the crash-before-first-commit points.
	if err := eng.CreateTable(pgCrashTable); err != nil {
		return nil, nil, err
	}
	keys, values, err := eng.Begin().Scan(p, pgCrashTable, nil, len(c.hist.newest)+8)
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		c.hist.judge(string(k), string(values[i]), &recovered, &phantoms)
	}
	return recovered, phantoms, nil
}

// recoverAtLog replays the XLOG the way pglite.Open would. A key is
// recovered when the batch holding its newest version is replayed, or
// lies below the durable checkpoint (its heap pages were flushed before
// the checkpoint was recorded); a replayed record that is not a batch
// committed at that LSN is a phantom.
func (c *pgCrash) recoverAtLog(p *sim.Proc) (recovered, phantoms []string, err error) {
	cfg := c.cfg.Log
	cfg.Name = pglite.LogName
	l, err := wal.Open(c.env, cfg)
	if err != nil {
		return nil, nil, err
	}
	byEnd := make(map[wal.LSN]pgBatch, len(c.ends))
	for _, b := range c.ends {
		byEnd[b.end] = b
	}
	replayed := map[string]string{} // key → value of its last replayed batch
	err = l.Recover(p, func(lsn wal.LSN, payload []byte) error {
		if b, ok := byEnd[lsn]; ok && bytes.Contains(payload, []byte(b.value)) {
			replayed[b.key] = b.value
		} else {
			phantoms = append(phantoms, fmt.Sprintf("xlog@%d", lsn))
		}
		return nil
	})
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	state := map[string]string{} // the checkpointed heap, then the replay over it
	for _, b := range c.ends {
		if b.end <= l.CheckpointLSN() {
			state[b.key] = b.value
		}
	}
	for k, v := range replayed {
		state[k] = v
	}
	for slot := 0; slot < c.hist.keys; slot++ {
		if v, ok := state[crashKey("pg", slot)]; ok {
			c.hist.judge(crashKey("pg", slot), v, &recovered, &phantoms)
		}
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
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
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
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
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
	cfg := crashStackConfig()
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
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	ps := c.ssd.PageSize()
	for lba := 0; lba < c.span; lba += blkGCHot {
		n := min(blkGCHot, c.span-lba)
		data, err := c.ssd.Device().ReadPages(p, ftl.LBA(lba), n)
		if err != nil {
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

// crashWorkload rows pin name, committed-op count and seed per
// workload. The lsm row is sized so its memtable never rotates (that
// path has its own experiment); each of pglite, kvaof and jfs has one row
// whose log holds the whole campaign and one (-ckpt) that overwrites a
// few keys on a ring so small that the engine checkpoints every few ops.
type crashWorkload struct {
	name  string
	ops   int
	seed  uint64
	build func(ops int) cycleBuilder
	// tweak optionally adjusts per-point fault plans (fault.Campaign's
	// Tweak contract: pure in the point index).
	tweak func(i int, plan *fault.Plan)
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

var crashWorkloads = []crashWorkload{
	{"wal", 48, 0x2b55c0de0001, func(int) cycleBuilder { return buildWALCrash }, nil},
	{"lsm", 32, 0x2b55c0de0002, buildLSMCrash, nil},
	// A fresh key per op on a 1 MB XLOG / 2 MB AOF / 1 MB journal.
	{"pglite", 32, 0x2b55c0de0003,
		func(ops int) cycleBuilder { return buildPGCrash(crashRing(2, 128, 64, 0, 1), ops, 48, false) }, nil},
	{"kvaof", 40, 0x2b55c0de0004,
		func(ops int) cycleBuilder { return buildAOFCrash(crashRing(2, 256, 256, 0), ops, 48) }, nil},
	{"jfs", 32, 0x2b55c0de0005,
		func(ops int) cycleBuilder { return buildJFSCrash(crashRing(2, 128, 64, 0, 1), ops, 1<<20) }, nil},
	// The checkpoint path: a few keys overwritten with versioned 1.5 KB
	// values (whole blocks for jfs) on 32-128 KB rings, so the XLOG
	// checkpoints, the AOF rewrites and the journal checkpoints every few
	// ops, the rings lap, and power cuts land on rotations, checkpoints
	// and truncations — with the dump cut short on a subset of points.
	{"pglite-ckpt", 48, 0x2b55c0de0008,
		func(int) cycleBuilder { return buildPGCrash(crashRing(2, 4, 2, 0, 1), 6, 1500, true) }, walLifeTweak},
	{"kvaof-ckpt", 48, 0x2b55c0de0009,
		func(int) cycleBuilder { return buildAOFCrash(crashRing(4, 4, 4, 0), 4, 1500) }, walLifeTweak},
	{"jfs-ckpt", 48, 0x2b55c0de000a,
		func(int) cycleBuilder { return buildJFSCrash(crashRing(4, 8, 4, 0, 1), 3, 5) }, walLifeTweak},
	// walseg runs a full segmented-WAL lifecycle (rotation, checkpoint
	// truncation, snapshot + chain-replay recovery) on the BA path,
	// with dump cuts on a point subset so torn-tail repair runs too.
	{"walseg", 48, 0x2b55c0de0006,
		func(ops int) cycleBuilder { return buildWalSegCrash(wal.BA, ops) },
		walLifeTweak},
	// blkgc has no log at all: the raw block path of a drive that is
	// collecting garbage the whole time, relocation runs in flight.
	{"blkgc", 192, 0x2b55c0de0007, func(int) cycleBuilder { return buildBlkGCCrash }, nil},
}

// CrashWorkloads lists the crash-campaign workload names in run order.
func CrashWorkloads() []string {
	names := make([]string, len(crashWorkloads))
	for i, w := range crashWorkloads {
		names[i] = w.name
	}
	return names
}

// NewCrashCampaign builds the named workload's campaign with the given
// number of crash points.
func NewCrashCampaign(workload string, pts int) (*fault.Campaign, error) {
	for _, w := range crashWorkloads {
		if w.name == workload {
			return &fault.Campaign{
				Name:   w.name,
				Points: pts,
				Ops:    w.ops,
				Seed:   w.seed,
				Build:  w.build(w.ops),
				Tweak:  w.tweak,
			}, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown crash workload %q", workload)
}

// RunCrash sweeps pointsPer crash points over each named workload (all
// of them when names is nil), streams each campaign's report to w, and
// returns an error when any point violated the durability contract.
// Points fan out through the Runner, so -j applies; the reports are
// byte-identical at any parallelism.
func RunCrash(r *Runner, w io.Writer, names []string, pointsPer int) error {
	if names == nil {
		names = CrashWorkloads()
	}
	violations := 0
	for _, name := range names {
		c, err := NewCrashCampaign(name, pointsPer)
		if err != nil {
			return err
		}
		rep, err := c.Run(r.parallelFor)
		if err != nil {
			return err
		}
		if err := rep.WriteText(w); err != nil {
			return err
		}
		violations += len(rep.Violations())
	}
	if violations > 0 {
		return fmt.Errorf("bench: %d crash points violated the durability contract", violations)
	}
	return nil
}
