// Package nand models a NAND flash subsystem: channels, dies, blocks
// and pages with realistic timing (tR, tPROG, tERASE, channel transfer)
// and the physical constraints that shape every SSD design —
// erase-before-program, strictly sequential page programming within a
// block, and limited erase endurance.
//
// Pages carry real bytes, so layers above can verify data integrity end
// to end, and all latency is charged on the sim clock: a die is a
// capacity-1 resource held for the array-operation time, a channel is a
// capacity-1 resource held for the transfer time.
//
// The page store holds live data only: a page's bytes exist from its
// program until its block is erased or the FTL discards it (Discard —
// the mapping table dropped it, and nothing reads such a page again),
// so host memory follows what the drive maps, not what it ever wrote.
// Of a page it holds the bytes up to the last non-zero one, rounded up
// to a size class (64 B doubling up to the page size); an all-zero page
// holds none but keeps its tag, and a read pads what a page holds back
// to the page with zeroes. The byte path's whole-page moves program
// many mostly-zero pages, so host memory also follows what pages hold.
// Each block keeps a table of its pages, made at its first program and
// reused across erases, so a program or a discard writes a slot and
// never rehashes. Discarded buffers wait on one spare list per size
// class; a buffer its list cannot supply is carved from an arena, many
// pages per heap object. A read takes its bytes when it is issued,
// before its die and channel holds: a page discarded while the read
// waits still comes back as it was.
//
// Relocation is copy-back: a ReadRun takes no bytes, a ProgramRun
// programs pages that hold none yet, and Move hands a source page's
// buffer and tag to its copy when the FTL remaps the LBA. A page's bytes
// are never copied inside the array, and a copy the FTL does not map
// never holds any.
package nand

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"twobssd/internal/arena"
	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// PPA is a physical page address: a dense index over every page in the
// flash array. See Config.PPA for the layout.
type PPA uint64

// BlockID is a dense index over every block in the flash array.
type BlockID uint32

// Config describes the geometry and timing of a flash subsystem.
type Config struct {
	Channels       int // independent I/O buses
	DiesPerChannel int // dies sharing one channel
	BlocksPerDie   int
	PagesPerBlock  int
	PageSize       int // bytes

	ReadLatency    sim.Duration // tR: array read into page register
	ProgramLatency sim.Duration // tPROG: page register into array
	EraseLatency   sim.Duration // tERASE: whole block

	ChannelMBps int // channel transfer rate, MB/s

	EnduranceCycles int // erases before a block goes bad (0 = unlimited)
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("nand: Channels must be > 0")
	case c.DiesPerChannel <= 0:
		return errors.New("nand: DiesPerChannel must be > 0")
	case c.BlocksPerDie <= 0:
		return errors.New("nand: BlocksPerDie must be > 0")
	case c.PagesPerBlock <= 0:
		return errors.New("nand: PagesPerBlock must be > 0")
	case c.PageSize <= 0:
		return errors.New("nand: PageSize must be > 0")
	case c.ChannelMBps <= 0:
		return errors.New("nand: ChannelMBps must be > 0")
	case c.ReadLatency < 0 || c.ProgramLatency < 0 || c.EraseLatency < 0:
		return errors.New("nand: latencies must be >= 0")
	}
	return nil
}

// Dies returns the total die count.
func (c Config) Dies() int { return c.Channels * c.DiesPerChannel }

// Blocks returns the total block count.
func (c Config) Blocks() int { return c.Dies() * c.BlocksPerDie }

// Pages returns the total page count.
func (c Config) Pages() int { return c.Blocks() * c.PagesPerBlock }

// CapacityBytes returns the raw capacity.
func (c Config) CapacityBytes() int64 {
	return int64(c.Pages()) * int64(c.PageSize)
}

// TransferTime returns the channel transfer time for n bytes.
func (c Config) TransferTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	// MB/s == bytes/µs: t_ns = n * 1000 / MBps.
	return sim.Duration(int64(n) * 1000 / int64(c.ChannelMBps))
}

// PPAOf composes a physical page address.
func (c Config) PPAOf(die, block, page int) PPA {
	return PPA((int64(die)*int64(c.BlocksPerDie)+int64(block))*int64(c.PagesPerBlock) + int64(page))
}

// Decompose splits a PPA into die, block-within-die and page indices.
func (c Config) Decompose(ppa PPA) (die, block, page int) {
	page = int(uint64(ppa) % uint64(c.PagesPerBlock))
	b := uint64(ppa) / uint64(c.PagesPerBlock)
	block = int(b % uint64(c.BlocksPerDie))
	die = int(b / uint64(c.BlocksPerDie))
	return
}

// BlockOf returns the dense block index containing ppa.
func (c Config) BlockOf(ppa PPA) BlockID {
	return BlockID(uint64(ppa) / uint64(c.PagesPerBlock))
}

// DieOf returns the die index of a PPA.
func (c Config) DieOf(ppa PPA) int {
	die, _, _ := c.Decompose(ppa)
	return die
}

// ChannelOf returns the channel a die is attached to (dies are
// interleaved across channels: die d sits on channel d mod Channels).
func (c Config) ChannelOf(die int) int { return die % c.Channels }

// Error values reported by flash operations.
var (
	ErrBadBlock     = errors.New("nand: block is bad")
	ErrNotErased    = errors.New("nand: program to unerased or out-of-order page")
	ErrOutOfRange   = errors.New("nand: address out of range")
	ErrWornOut      = errors.New("nand: block exceeded endurance")
	ErrPageTooLarge = errors.New("nand: data larger than page")

	// Injected-fault errors (internal/fault). ErrUncorrectable means a
	// read failed ECC even after every retry step — the FTL salvages
	// the data and retires the block. ErrProgramFailed/ErrEraseFailed
	// are grown defects: the op charged full latency but did not take.
	ErrUncorrectable = errors.New("nand: uncorrectable read")
	ErrProgramFailed = errors.New("nand: page program failed")
	ErrEraseFailed   = errors.New("nand: block erase failed")
)

type blockState struct {
	nextPage   int // next programmable page (sequential-program rule)
	eraseCount int
	bad        bool
	pages      []page // by page index; made at the block's first program
}

// page is what a programmed page holds: its bytes up to the last
// non-zero one, in a buffer of its size class (noBytes when all are
// zero, nil while it holds none), and one out-of-band word, the
// simulated spare area. The flash layer never interprets the tag; it
// carries whatever the layer above programmed (the FTL's integrity CRC
// in this stack).
type page struct {
	data []byte
	tag  uint32
}

// minClass is the smallest page buffer. The size classes are minClass
// doubling up to the page size, which is the largest.
const minClass = 64

// noBytes is what an all-zero page stores: empty but not nil, so the
// page still holds its tag (the CRC of a zero page is not 0).
var noBytes = []byte{}

// Flash is a simulated NAND array bound to a sim.Env.
type Flash struct {
	env      *sim.Env
	cfg      Config
	channels []*sim.Resource
	dies     []*sim.Resource
	blocks   []blockState
	spare    [][][]byte  // by size class: page buffers dropped by Discard, reused by a program
	pageMem  arena.Arena // fresh page buffers, when a class's spare list is empty
	zero     []byte      // a zero page, what a program's stored length is found against

	o        *obs.Set
	chTrack  []string // precomputed trace track names (no per-op fmt)
	dieTrack []string

	// Fault injection (nil = disabled, the common case). progAt
	// tracks page program times for the retention term of the BER
	// model and exists only when an injector is installed, so the
	// fault-free datapath carries no extra bookkeeping. Discard leaves
	// it alone — only an erase clears it — so a read issued before a
	// discard gets the ECC verdict of the page it read.
	inj    *fault.Injector
	progAt map[PPA]sim.Time

	cReads, cPrograms, cErases *obs.Counter
	cBytesRead, cBytesWritten  *obs.Counter
	hRead, hProgram, hErase    *histo.H
}

// Channel and die names are identical for every Flash in the process,
// so they are formatted once and shared; tracks get the zero-padded
// variant so trace viewers sort them correctly.
var nameTab struct {
	sync.Mutex
	ch, chT, die, dieT []string
}

func nandNames(names, tracks *[]string, prefix string, n int) ([]string, []string) {
	nameTab.Lock()
	defer nameTab.Unlock()
	for len(*names) < n {
		i := len(*names)
		*names = append(*names, fmt.Sprintf("%s%d", prefix, i))
		*tracks = append(*tracks, fmt.Sprintf("%s%02d", prefix, i))
	}
	return (*names)[:n:n], (*tracks)[:n:n]
}

// New creates a flash array. It panics on an invalid configuration
// (construction-time misuse, not a runtime condition).
func New(env *sim.Env, cfg Config) *Flash {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Flash{
		env:    env,
		cfg:    cfg,
		blocks: make([]blockState, cfg.Blocks()),
		zero:   make([]byte, cfg.PageSize),
		o:      obs.Of(env),
		inj:    fault.Of(env),
	}
	f.spare = make([][][]byte, f.classOf(cfg.PageSize)+1)
	if f.inj != nil {
		f.progAt = make(map[PPA]sim.Time)
	}
	chNames, chTracks := nandNames(&nameTab.ch, &nameTab.chT, "nand.ch", cfg.Channels)
	f.chTrack = chTracks
	for i := 0; i < cfg.Channels; i++ {
		f.channels = append(f.channels, env.NewResource(chNames[i], 1))
	}
	dieNames, dieTracks := nandNames(&nameTab.die, &nameTab.dieT, "nand.die", cfg.Dies())
	f.dieTrack = dieTracks
	for i := 0; i < cfg.Dies(); i++ {
		f.dies = append(f.dies, env.NewResource(dieNames[i], 1))
	}
	reg := f.o.Registry()
	f.cReads = reg.Counter("nand.page_reads")
	f.cPrograms = reg.Counter("nand.page_programs")
	f.cErases = reg.Counter("nand.block_erases")
	f.cBytesRead = reg.Counter("nand.bytes_read")
	f.cBytesWritten = reg.Counter("nand.bytes_written")
	f.hRead = reg.Histo("nand.read_ns")
	f.hProgram = reg.Histo("nand.program_ns")
	f.hErase = reg.Histo("nand.erase_ns")
	reg.GaugeFunc("nand.die_busy_frac", func() float64 { return busyFrac(env, f.dies) })
	reg.GaugeFunc("nand.chan_busy_frac", func() float64 { return busyFrac(env, f.channels) })
	return f
}

// busyFrac is the mean fraction of elapsed virtual time the given
// resources were held — die/channel occupancy for the metrics report.
func busyFrac(env *sim.Env, rs []*sim.Resource) float64 {
	if env.Now() == 0 || len(rs) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, r := range rs {
		busy += r.Busy()
	}
	return float64(busy) / (float64(env.Now()) * float64(len(rs)))
}

// Config returns the geometry/timing configuration.
func (f *Flash) Config() Config { return f.cfg }

func (f *Flash) checkPPA(ppa PPA) error {
	if uint64(ppa) >= uint64(f.cfg.Pages()) {
		return ErrOutOfRange
	}
	return nil
}

// ReadPage reads one page into a fresh buffer (see ReadPageInto). Only
// benchmark/adapter.go calls it; the benchmark's revision A deletes it.
func (f *Flash) ReadPage(p *sim.Proc, ppa PPA) ([]byte, error) {
	out := make([]byte, f.cfg.PageSize)
	if _, _, err := f.ReadPageInto(p, ppa, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPageInto performs an array read of one page, transfers it over the
// die's channel and lands it in dst, at least PageSize bytes the caller
// owns; never-written and discarded pages read back as zeroes (an erased
// page). With a fault injector installed the read may take stepped ECC
// retry latency or fail with ErrUncorrectable (wear- and retention-driven
// BER model). It also returns the page's out-of-band tag (0 for a page
// without bytes) and the number of ECC read-retry steps the read needed:
// retries > 0 means the page holds latent-but-correctable errors — the
// signal the background scrubber acts on before wear or retention pushes
// the page past the ECC budget. dst and the tag are filled even when the
// read fails ECC: they are what SalvageRead recovers.
func (f *Flash) ReadPageInto(p *sim.Proc, ppa PPA, dst []byte) (tag uint32, retries int, err error) {
	if err := f.checkPPA(ppa); err != nil {
		return 0, 0, err
	}
	tag = f.capture(ppa, dst)
	f.readTimed(p, ppa)
	if f.inj != nil {
		retries, err = f.readFault(p, ppa)
	}
	return tag, retries, err
}

// readFault asks the injector for the ECC verdict on a read of ppa at
// this instant (wear and retention age feed the BER model), charges the
// read-retry latency to p and reports ErrUncorrectable when the page
// stays beyond the ECC budget. Called only with an injector installed.
func (f *Flash) readFault(p *sim.Proc, ppa PPA) (retries int, err error) {
	var age sim.Duration
	if t, ok := f.progAt[ppa]; ok {
		age = sim.Duration(f.env.Now() - t)
	}
	rd := f.inj.ReadFault(f.cfg.PageSize, f.blocks[f.cfg.BlockOf(ppa)].eraseCount, age)
	if rd.Retries > 0 {
		p.Sleep(rd.Extra)
	}
	if rd.Uncorrectable {
		return rd.Retries, fmt.Errorf("%w: ppa %d", ErrUncorrectable, uint64(ppa))
	}
	return rd.Retries, nil
}

// SalvageRead is the FTL's last-resort re-read of a page whose read
// failed ECC: full array/channel timing, no fault injection. The model
// keeps page bytes intact, so the bytes and tag the failed read already
// captured (ReadPageInto) are the page's data — a relocation run
// moves the page's own bytes (Move) — and salvage hands back nothing
// new: a re-fetch after the retries could find the page discarded. The
// realism is in the latency already paid on retries, this re-read's,
// and the block retirement that follows.
func (f *Flash) SalvageRead(p *sim.Proc, ppa PPA) error {
	if err := f.checkPPA(ppa); err != nil {
		return err
	}
	f.readTimed(p, ppa)
	return nil
}

// capture copies a page's stored bytes, zero-padded to the page, and
// its out-of-band tag into dst — the data half of a read, taken when the
// read is issued.
func (f *Flash) capture(ppa PPA, dst []byte) uint32 {
	dst = dst[:f.cfg.PageSize]
	pg := f.stored(ppa)
	if pg == nil {
		clear(dst) // pages without bytes read as zeroes
		return 0
	}
	clear(dst[copy(dst, pg.data):])
	return pg.tag
}

// stored is what a page holds, nil while it holds no bytes.
func (f *Flash) stored(ppa PPA) *page {
	pages := f.blocks[f.cfg.BlockOf(ppa)].pages
	if pages == nil {
		return nil
	}
	pg := &pages[uint64(ppa)%uint64(f.cfg.PagesPerBlock)]
	if pg.data == nil {
		return nil
	}
	return pg
}

// readTimed charges one page read — the die hold for tR, then the
// channel hold for the transfer — and counts it on completion.
func (f *Flash) readTimed(p *sim.Proc, ppa PPA) {
	die := f.cfg.DieOf(ppa)
	ch := f.cfg.ChannelOf(die)
	start := f.env.Now()
	tr := f.o.Tracer()
	// Spans cover only the hold (the die/channel occupancy); the
	// histogram covers the whole op including queueing.
	f.dies[die].Acquire(p)
	sp := tr.Begin(f.dieTrack[die], "nand", "tR")
	p.Sleep(f.cfg.ReadLatency)
	sp.End()
	f.dies[die].Release()
	f.channels[ch].Acquire(p)
	sp = tr.Begin(f.chTrack[ch], "nand", "xfer_out")
	p.Sleep(f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.hRead.Observe(sim.Duration(f.env.Now() - start))
	f.cReads.Inc()
	f.cBytesRead.Add(uint64(f.cfg.PageSize))
}

// ProgramPage transfers data over the channel and programs one page.
// Data shorter than a page is zero-padded. Programming must follow the
// block's sequential-page order on an erased block. The page's tag is 0.
func (f *Flash) ProgramPage(p *sim.Proc, ppa PPA, data []byte) error {
	return f.ProgramPageTagged(p, ppa, data, 0)
}

// ProgramPageTagged is ProgramPage plus an out-of-band tag programmed
// into the page's spare area alongside the data. The flash layer never
// interprets the tag; ReadPageInto hands it back on every read.
func (f *Flash) ProgramPageTagged(p *sim.Proc, ppa PPA, data []byte, tag uint32) error {
	if err := f.checkPPA(ppa); err != nil {
		return err
	}
	if len(data) > f.cfg.PageSize {
		return ErrPageTooLarge
	}
	die, _, page := f.cfg.Decompose(ppa)
	blk := &f.blocks[f.cfg.BlockOf(ppa)]
	if blk.bad {
		return ErrBadBlock
	}
	if page != blk.nextPage {
		return fmt.Errorf("%w: block %d page %d (next programmable %d)",
			ErrNotErased, f.cfg.BlockOf(ppa), page, blk.nextPage)
	}
	ch := f.cfg.ChannelOf(die)
	start := f.env.Now()
	tr := f.o.Tracer()
	f.channels[ch].Acquire(p)
	sp := tr.Begin(f.chTrack[ch], "nand", "xfer_in")
	p.Sleep(f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.dies[die].Acquire(p)
	sp = tr.Begin(f.dieTrack[die], "nand", "tPROG")
	p.Sleep(f.cfg.ProgramLatency)
	sp.End()
	f.dies[die].Release()
	if f.inj != nil && f.inj.ProgramFault() {
		// Grown defect: full latency charged, page not programmed.
		// The FTL retires the block and retries elsewhere.
		return fmt.Errorf("%w: block %d page %d", ErrProgramFailed, f.cfg.BlockOf(ppa), page)
	}
	stored := noBytes
	if k := f.storedClass(data); k >= 0 {
		stored = f.buffer(k, data)
	}
	f.commit(blk, ppa, stored, tag)
	f.hProgram.Observe(sim.Duration(f.env.Now() - start))
	return nil
}

// classSize is the byte size of page buffers of class k.
func (f *Flash) classSize(k int) int { return min(minClass<<k, f.cfg.PageSize) }

// classOf is the smallest class whose buffers hold n bytes.
func (f *Flash) classOf(n int) int { return bits.Len(uint(max(n-1, 0) / minClass)) }

// storedClass is the size class that holds data up to its last non-zero
// byte, -1 when data is all zeroes. From the top class down it checks
// the part of data each class adds over the one below — the upper half
// of the class — and stops at the first that is not zero. bytes.Equal
// against the zero page compares at memory speed; a byte or word loop
// here costs a visible share of a run's host time and saves none.
func (f *Flash) storedClass(data []byte) int {
	for k := len(f.spare) - 1; k >= 0; k-- {
		lo := 0
		if k > 0 {
			lo = f.classSize(k - 1)
		}
		hi := min(f.classSize(k), len(data))
		if lo < hi && !bytes.Equal(data[lo:hi], f.zero[:hi-lo]) {
			return k
		}
	}
	return -1
}

// buffer returns a page buffer of class k holding src, zero-padded: a
// spare one when Discard filed one (its old bytes are overwritten), else
// a fresh carve.
func (f *Flash) buffer(k int, src []byte) []byte {
	size := f.classSize(k)
	var b []byte
	if n := len(f.spare[k]); n > 0 {
		b = f.spare[k][n-1][:size]
		f.spare[k][n-1] = nil
		f.spare[k] = f.spare[k][:n-1]
	} else {
		b = f.pageMem.Alloc(size)[:size]
	}
	clear(b[copy(b, src):])
	return b
}

// release files a page buffer on the spare list of its class; noBytes
// is shared and never filed.
func (f *Flash) release(b []byte) {
	if c := cap(b); c > 0 {
		k := f.classOf(c)
		f.spare[k] = append(f.spare[k], b)
	}
}

// commit makes one page program take: the block's program cursor
// advances, the page holds stored and its tag (no bytes for a copy-back
// target, which Move fills), the program is counted and — with an
// injector — stamped with its instant and ticked.
func (f *Flash) commit(blk *blockState, ppa PPA, stored []byte, tag uint32) {
	blk.nextPage++
	if blk.pages == nil {
		blk.pages = make([]page, f.cfg.PagesPerBlock)
	}
	blk.pages[uint64(ppa)%uint64(f.cfg.PagesPerBlock)] = page{data: stored, tag: tag}
	f.cPrograms.Inc()
	f.cBytesWritten.Add(uint64(f.cfg.PageSize))
	if f.inj != nil {
		f.progAt[ppa] = f.env.Now()
		f.inj.Tick(fault.EvNandProgram)
	}
}

// RunPage is one page of a ReadRun.
type RunPage struct {
	PPA PPA   // the page to read
	Err error // ErrUncorrectable when this page failed ECC (injected)
}

// ReadRun reads pages of one block — in any order, with gaps — as one
// background-class operation: one die hold of len(pages)·tR, then one
// channel hold for all the transfers. That is the occupancy of as many
// ReadPageInto calls, for two kernel events instead of two per page, and
// the page counters advance per page; the latency histogram is not fed
// (it describes single-page operations). It is the read half of a
// copy-back: every page's bytes and tag stay in the array for Move. The
// relocation paths of the FTL move a victim's valid pages with it.
//
// With a fault injector installed and salvage false, the die hold steps
// page by page so each page gets its ECC verdict at its own instant
// (read-retry latency is spent on the die); a page beyond the budget
// has Err set and the run goes on. salvage reads raw, as SalvageRead
// does. The returned error is for the run as a whole (bad addresses).
func (f *Flash) ReadRun(p *sim.Proc, pages []RunPage, salvage bool) error {
	if len(pages) == 0 {
		return nil
	}
	blk := f.cfg.BlockOf(pages[0].PPA)
	for i := range pages {
		if err := f.checkPPA(pages[i].PPA); err != nil {
			return err
		}
		if f.cfg.BlockOf(pages[i].PPA) != blk {
			return fmt.Errorf("%w: run spans blocks %d and %d", ErrOutOfRange, blk, f.cfg.BlockOf(pages[i].PPA))
		}
		pages[i].Err = nil
	}
	die := f.cfg.DieOf(pages[0].PPA)
	ch := f.cfg.ChannelOf(die)
	n := sim.Duration(len(pages))
	tr := f.o.Tracer()
	f.dies[die].Acquire(p)
	sp := tr.Begin(f.dieTrack[die], "nand", "tR")
	if f.inj != nil && !salvage {
		for i := range pages {
			p.Sleep(f.cfg.ReadLatency)
			_, pages[i].Err = f.readFault(p, pages[i].PPA)
		}
	} else {
		p.Sleep(n * f.cfg.ReadLatency)
	}
	sp.End()
	f.dies[die].Release()
	f.channels[ch].Acquire(p)
	sp = tr.Begin(f.chTrack[ch], "nand", "xfer_out")
	p.Sleep(n * f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.cReads.Add(uint64(len(pages)))
	f.cBytesRead.Add(uint64(len(pages) * f.cfg.PageSize))
	return nil
}

// ProgramRun programs n consecutive pages of one block starting at base
// as copy-back targets, as one background-class operation: one channel
// hold for all the transfers, then one die hold of n·tPROG — the
// occupancy of as many ProgramPage calls for two kernel events. The
// pages hold no bytes until Move hands each its source's. The
// sequential-program rule applies to base. It returns how many pages
// took; fewer than n comes with the error that stopped the run.
//
// Without a fault injector the pages take together when the die hold
// ends. With one, the die hold steps page by page: every page draws its
// own program-failure verdict, is stamped with its own program instant
// and ticks EvNandProgram on its own, tPROG after the page before it;
// the first ErrProgramFailed ends the run with the earlier pages
// programmed.
func (f *Flash) ProgramRun(p *sim.Proc, base PPA, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if err := f.checkPPA(base); err != nil {
		return 0, err
	}
	die, _, page := f.cfg.Decompose(base)
	if page+n > f.cfg.PagesPerBlock {
		return 0, fmt.Errorf("%w: run of %d pages from page %d leaves the block", ErrOutOfRange, n, page)
	}
	blk := &f.blocks[f.cfg.BlockOf(base)]
	if blk.bad {
		return 0, ErrBadBlock
	}
	if page != blk.nextPage {
		return 0, fmt.Errorf("%w: block %d page %d (next programmable %d)",
			ErrNotErased, f.cfg.BlockOf(base), page, blk.nextPage)
	}
	ch := f.cfg.ChannelOf(die)
	tr := f.o.Tracer()
	f.channels[ch].Acquire(p)
	sp := tr.Begin(f.chTrack[ch], "nand", "xfer_in")
	p.Sleep(sim.Duration(n) * f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.dies[die].Acquire(p)
	sp = tr.Begin(f.dieTrack[die], "nand", "tPROG")
	if f.inj == nil {
		p.Sleep(sim.Duration(n) * f.cfg.ProgramLatency)
	}
	done, err := 0, error(nil)
	for ; done < n; done++ {
		if f.inj != nil {
			p.Sleep(f.cfg.ProgramLatency)
			if f.inj.ProgramFault() {
				err = fmt.Errorf("%w: block %d page %d", ErrProgramFailed, f.cfg.BlockOf(base), page+done)
				break
			}
		}
		f.commit(blk, base+PPA(done), nil, 0)
	}
	sp.End()
	f.dies[die].Release()
	return done, err
}

// Move hands src's bytes and out-of-band tag to dst, a page a
// ProgramRun programmed as a copy-back target that holds none yet: dst
// then reads as src did, and src holds nothing, as after a Discard. The
// FTL calls it in the step that remaps the LBA from src to dst, so the
// bytes of a mapped page are always where the map points.
func (f *Flash) Move(src, dst PPA) {
	blk := &f.blocks[f.cfg.BlockOf(dst)]
	i := uint64(dst) % uint64(f.cfg.PagesPerBlock)
	if int(i) >= blk.nextPage || blk.pages[i].data != nil {
		panic(fmt.Sprintf("nand: move to ppa %d, which is not an empty programmed page", uint64(dst)))
	}
	if pg := f.stored(src); pg != nil {
		blk.pages[i] = *pg
		*pg = page{}
	}
}

// DieIdle reports whether no operation holds the die right now — what a
// scheduler with a choice of dies (the FTL placing a relocation run)
// looks at before committing to one.
func (f *Flash) DieIdle(die int) bool { return f.dies[die].InUse() == 0 }

// EraseBlock erases a whole block, making its pages programmable again.
// When the block's erase count passes the configured endurance the
// block is retired and ErrWornOut is returned.
func (f *Flash) EraseBlock(p *sim.Proc, blk BlockID) error {
	if uint64(blk) >= uint64(f.cfg.Blocks()) {
		return ErrOutOfRange
	}
	bs := &f.blocks[blk]
	if bs.bad {
		return ErrBadBlock
	}
	die := int(uint64(blk) / uint64(f.cfg.BlocksPerDie))
	start := f.env.Now()
	f.dies[die].Acquire(p)
	sp := f.o.Tracer().Begin(f.dieTrack[die], "nand", "tERASE")
	p.Sleep(f.cfg.EraseLatency)
	sp.End()
	f.dies[die].Release()
	if f.inj != nil && f.inj.EraseFault() {
		// Erase failure is a grown defect: the block is retired on
		// the spot, its contents and program state untouched.
		bs.bad = true
		return fmt.Errorf("%w: block %d", ErrEraseFailed, blk)
	}
	bs.eraseCount++
	bs.nextPage = 0
	f.cErases.Inc()
	f.hErase.Observe(sim.Duration(f.env.Now() - start))
	base := PPA(uint64(blk) * uint64(f.cfg.PagesPerBlock))
	for i := 0; i < f.cfg.PagesPerBlock; i++ {
		f.Discard(base + PPA(i))
		if f.inj != nil {
			delete(f.progAt, base+PPA(i))
		}
	}
	if f.cfg.EnduranceCycles > 0 && bs.eraseCount >= f.cfg.EnduranceCycles {
		bs.bad = true
		return ErrWornOut
	}
	return nil
}

// Discard drops a page's bytes and out-of-band tag and keeps its buffer
// for the next program — the FTL calls it the moment its mapping table
// drops the page, which nothing reads again. The page itself stays
// programmed (its block's cursor and the ECC model's program instant
// are untouched, only an erase makes it programmable again); it reads
// back as zeroes.
func (f *Flash) Discard(ppa PPA) {
	if pg := f.stored(ppa); pg != nil {
		f.release(pg.data)
		*pg = page{}
	}
}

// MarkBad retires a block — the FTL calls this after uncorrectable
// reads or program failures (and tests use it for direct injection).
func (f *Flash) MarkBad(blk BlockID) {
	f.blocks[blk].bad = true
}

// IsBad reports whether a block has been retired.
func (f *Flash) IsBad(blk BlockID) bool { return f.blocks[blk].bad }

// EraseCount reports a block's erase cycles.
func (f *Flash) EraseCount(blk BlockID) int { return f.blocks[blk].eraseCount }

// NextPage reports the next programmable page index of a block.
func (f *Flash) NextPage(blk BlockID) int { return f.blocks[blk].nextPage }

// PeekPage returns the stored contents of a page without timing or
// counters — a debugging/verification hook for tests and recovery
// assertions, not a datapath. Never-programmed, erased and discarded
// pages read as zeroes.
func (f *Flash) PeekPage(ppa PPA) []byte {
	out := make([]byte, f.cfg.PageSize)
	f.capture(ppa, out)
	return out
}

// CorruptPage flips the low bit of the first n bytes of a page (at most
// a page's worth) — the silent-corruption hook the integrity tests use
// to prove the CRC tags actually detect a page a layer mangled in
// flight. The BER fault model perturbs *latency* and verdicts while
// keeping bytes intact; this hook is how tests make bytes lie. When n
// runs past the stored bytes, the page first grows to the class that
// holds n, so every flipped bit is one a read returns. Returns false
// when the page holds no bytes — never programmed, erased or discarded
// (nothing to corrupt).
func (f *Flash) CorruptPage(ppa PPA, n int) bool {
	pg := f.stored(ppa)
	if pg == nil {
		return false
	}
	n = min(n, f.cfg.PageSize)
	if n > len(pg.data) {
		grown := f.buffer(f.classOf(n), pg.data)
		f.release(pg.data)
		pg.data = grown
	}
	for i := 0; i < n; i++ {
		pg.data[i] ^= 1
	}
	return true
}
