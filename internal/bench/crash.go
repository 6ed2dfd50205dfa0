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
func (s *stack) Crash(p *sim.Proc) (bool, float64, error) {
	rep, err := s.ssd.PowerLoss(p)
	if err != nil && !errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		return false, 0, err
	}
	return rep.Persisted, rep.EnergyUsedJ, nil
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

func buildLSMCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
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

type pgCrash struct {
	*stack
	cfg  pglite.Config
	eng  *pglite.Engine
	ops  int
	want map[string]string
}

func buildPGCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := pglite.Config{
			DataFS:          s.dataFS,
			LogFS:           s.logFS,
			Log:             s.logConfig(nil, 0, 1),
			LogFileBytes:    1 << 20,
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
		return &pgCrash{stack: s, cfg: cfg, eng: eng, ops: ops, want: map[string]string{}}, nil
	}
}

func (c *pgCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("pg", i)
	value := crashValue(key)
	c.want[key] = value
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(value))
	return key, tx.Commit(p)
}

// Stage opens a transaction and upserts without committing: the change
// lives only in the host-side txn buffer and must never survive.
func (c *pgCrash) Stage(p *sim.Proc) (string, error) {
	key := "pg-staged"
	c.want[key] = crashValue(key)
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(c.want[key]))
	return key, nil
}

func (c *pgCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	eng, err := pglite.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	// Replay creates the table when any batch survived; the explicit
	// create covers the crash-before-first-commit points.
	if err := eng.CreateTable(pgCrashTable); err != nil {
		return nil, nil, err
	}
	keys, values, err := eng.Begin().Scan(p, pgCrashTable, nil, c.ops*2+8)
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		key := string(k)
		if c.want[key] == string(values[i]) && c.want[key] != "" {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// ---- kvaof: Redis-like store, AOF pinned over the whole buffer -----

type aofCrash struct {
	*stack
	cfg  kvaof.Config
	st   *kvaof.Store
	want map[string]string
}

func buildAOFCrash(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	s := newCrashStack(env)
	cfg := kvaof.Config{
		LogFS:    s.logFS,
		Log:      s.logConfig(nil, 0),
		AOFBytes: 2 << 20,
	}
	st, err := kvaof.Open(env, p, cfg)
	if err != nil {
		return nil, err
	}
	return &aofCrash{stack: s, cfg: cfg, st: st, want: map[string]string{}}, nil
}

func (c *aofCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("kv", i)
	value := crashValue(key)
	c.want[key] = value
	return key, c.st.Set(p, []byte(key), []byte(value))
}

// Stage: every AOF command commits before it applies; no uncommitted path.
func (c *aofCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *aofCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	st, err := kvaof.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, key := range st.Keys() {
		v, _ := st.Get(p, []byte(key))
		if c.want[key] == string(v) && c.want[key] != "" {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// ---- jfs: journaling filesystem, journal on the BA-buffer ----------

type jfsCrash struct {
	*stack
	cfg  jfs.Config
	st   *jfs.Store
	ops  int
	want map[uint32][]byte
}

func buildJFSCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		home, err := s.dataFS.Create("home", int64(ops+2)*jfs.BlockSize)
		if err != nil {
			return nil, err
		}
		journal, err := s.logFS.Create("journal", 1<<20)
		if err != nil {
			return nil, err
		}
		cfg := jfs.Config{
			Home:            home,
			Log:             s.logConfig(journal, 0, 1),
			CheckpointEvery: 1 << 20,
		}
		st, err := jfs.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &jfsCrash{stack: s, cfg: cfg, st: st, ops: ops, want: map[uint32][]byte{}}, nil
	}
}

// jfsBlock is the full padded home-block image for key i.
func jfsBlock(i int) []byte {
	b := make([]byte, jfs.BlockSize)
	copy(b, crashValue(crashKey("jfs", i)))
	return b
}

func (c *jfsCrash) Step(p *sim.Proc, i int) (string, error) {
	c.want[uint32(i)] = jfsBlock(i)
	tx := c.st.Begin()
	if err := tx.WriteBlock(uint32(i), c.want[uint32(i)]); err != nil {
		return "", err
	}
	return crashKey("jfs", i), tx.Commit(p)
}

// Stage writes one block in an open transaction and never commits it.
func (c *jfsCrash) Stage(p *sim.Proc) (string, error) {
	blk := uint32(c.ops)
	c.want[blk] = jfsBlock(c.ops)
	tx := c.st.Begin()
	if err := tx.WriteBlock(blk, c.want[blk]); err != nil {
		return "", err
	}
	return crashKey("jfs", c.ops), nil
}

func (c *jfsCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	st, err := jfs.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	zero := make([]byte, jfs.BlockSize)
	for i := 0; i <= c.ops; i++ {
		data, err := st.ReadBlock(p, uint32(i))
		if err != nil {
			return nil, nil, err
		}
		switch {
		case bytes.Equal(data, c.want[uint32(i)]):
			recovered = append(recovered, crashKey("jfs", i))
		case bytes.Equal(data, zero): // never reached the home file
		default:
			phantoms = append(phantoms, crashKey("jfs", i))
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
// workload; ops are sized so no workload rotates its memtable or
// checkpoints mid-campaign (those paths have their own experiments).
type crashWorkload struct {
	name  string
	ops   int
	seed  uint64
	build func(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error)
	// tweak optionally adjusts per-point fault plans (fault.Campaign's
	// Tweak contract: pure in the point index).
	tweak func(i int, plan *fault.Plan)
}

var crashWorkloads = []crashWorkload{
	{"wal", 48, 0x2b55c0de0001, func(int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildWALCrash }, nil},
	{"lsm", 32, 0x2b55c0de0002, buildLSMCrash, nil},
	{"pglite", 32, 0x2b55c0de0003, buildPGCrash, nil},
	{"kvaof", 40, 0x2b55c0de0004, func(int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildAOFCrash }, nil},
	{"jfs", 32, 0x2b55c0de0005, buildJFSCrash, nil},
	// walseg runs a full segmented-WAL lifecycle (rotation, checkpoint
	// truncation, snapshot + chain-replay recovery) on the BA path,
	// with dump cuts on a point subset so torn-tail repair runs too.
	{"walseg", 48, 0x2b55c0de0006,
		func(ops int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildWalSegCrash(wal.BA, ops) },
		walLifeTweak},
	// blkgc has no log at all: the raw block path of a drive that is
	// collecting garbage the whole time, relocation runs in flight.
	{"blkgc", 192, 0x2b55c0de0007, func(int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildBlkGCCrash }, nil},
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
