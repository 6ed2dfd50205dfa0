// The segmented-WAL lifecycle crash driver behind the `walseg` and
// `walseg-sync` campaign rows: a checkpointing engine
// on a ring-geometry wal.Log that rotates through the segment ring,
// truncates at every checkpoint, and recovers from snapshot + chain replay — so the
// fault campaign lands power cuts mid-rotation, mid-checkpoint and
// mid-truncation, and recovery must repair the torn/stale tails that
// ring recycling leaves behind. Every recovery outcome is additionally
// checked against the oracle's pure lifecycle model.
package bench

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"twobssd/internal/fault"
	"twobssd/internal/integrity"
	"twobssd/internal/oracle"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// Snapshot file layout: two alternating slots (so a torn snapshot
// write never destroys the one the durable checkpoint refers to), each
// [4] magic | [8] checkpoint LSN | [4] count |
// count × ([2] keylen | key | [4] payload CRC-32C) | [4] CRC-32C.
const (
	walSegSnapMagic = 0x5345474E
	walSegSnapSlot  = 8 << 10
)

// walSegPayload pads records to ~1.6 KB so a 16 KB segment file holds
// ten and the 48-op workload rotates through the 4-slot ring — the
// later segments live in recycled slots whose stale bytes force
// torn-tail repairs after a crash.
func walSegPayload(key string) string {
	return crashValue(key) + strings.Repeat("s", 1500)
}

type walSegCrash struct {
	*stack
	cfg   wal.Config
	sl    *wal.Log // the log the steps append to
	rec   *wal.Log // the log Recover opened, once it has
	model *oracle.WalLifecycle
	snap  *vfs.File
	snapN int
	ops   int

	want    map[string]string // every appended key (incl. staged)
	applied map[string]string // committed state, snapshotted at checkpoints
}

// buildWalSegCrash builds the lifecycle engine in the given commit
// mode: BA is the paper's byte path, Sync the block+flush baseline.
func buildWalSegCrash(mode wal.CommitMode, ops int) cycleBuilder {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := walLifeConfig(s, mode)
		sl, err := wal.Open(env, cfg)
		if err != nil {
			return nil, err
		}
		snap, err := s.dataFS.Create("segsnap", 2*walSegSnapSlot)
		if err != nil {
			return nil, err
		}
		return &walSegCrash{
			stack: s, cfg: cfg, sl: sl, model: oracle.NewWalLifecycle(),
			snap: snap, ops: ops,
			want: map[string]string{}, applied: map[string]string{},
		}, nil
	}
}

func (c *walSegCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("wseg", i)
	payload := walSegPayload(key)
	c.want[key] = payload
	lsn, err := c.sl.Append(p, []byte(payload))
	if err != nil {
		return "", err
	}
	end := int64(lsn)
	c.model.Append(key, payload, end-int64(len(payload))-wal.RecordOverhead, end)
	if err := c.sl.Commit(p, lsn); err != nil {
		return "", err
	}
	c.applied[key] = payload
	// Checkpoint every 12 ops: the snapshot goes durable first, then
	// the WAL checkpoint truncates every segment it fully covers.
	if i%12 == 11 {
		if err := c.writeSnapshot(p, end); err != nil {
			return "", err
		}
		if err := c.sl.Checkpoint(p, lsn); err != nil {
			return "", err
		}
		c.model.Checkpoint(end, c.applied)
	}
	return key, nil
}

// Stage appends without committing: in BA mode the record sits in the
// BA buffer and may legitimately survive via the capacitor dump; in
// Sync mode it never reaches media.
func (c *walSegCrash) Stage(p *sim.Proc) (string, error) {
	key := "wseg-staged"
	payload := crashValue(key)
	c.want[key] = payload
	lsn, err := c.sl.Append(p, []byte(payload))
	if err != nil {
		return "", err
	}
	end := int64(lsn)
	c.model.Append(key, payload, end-int64(len(payload))-wal.RecordOverhead, end)
	return key, nil
}

func (c *walSegCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	sl, err := wal.Open(c.env, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	c.rec = sl
	var replayed []oracle.WalRecord
	seen := map[string]bool{}
	err = sl.Recover(p, func(lsn wal.LSN, payload []byte) error {
		s := string(payload)
		key := keyOf(s)
		end := int64(lsn)
		replayed = append(replayed, oracle.WalRecord{
			Key: key, Payload: s,
			Start: end - int64(len(s)) - wal.RecordOverhead, End: end,
		})
		if c.want[key] == s {
			if !seen[key] {
				seen[key] = true
				recovered = append(recovered, key)
			}
		} else {
			phantoms = append(phantoms, key)
		}
		return nil
	})
	if excused, err := c.tornLogExcused(p, err); excused || err != nil {
		return nil, nil, err
	}
	snapMap := map[string]string{}
	if snapCRCs, ok := c.readSnapshot(p); ok {
		keys := make([]string, 0, len(snapCRCs))
		for k := range snapCRCs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if integrity.PageCRC([]byte(c.want[k])) == snapCRCs[k] {
				snapMap[k] = c.want[k]
				if !seen[k] {
					seen[k] = true
					recovered = append(recovered, k)
				}
			} else {
				snapMap[k] = fmt.Sprintf("crc:%08x", snapCRCs[k])
				phantoms = append(phantoms, k)
			}
		}
	}
	for _, ph := range c.model.VerifyRecovery(int64(sl.CheckpointLSN()), replayed, snapMap) {
		phantoms = append(phantoms, "model: "+ph)
	}
	return recovered, phantoms, nil
}

// Audit checks the stack (stack.Audit), then the frontiers of the log
// the cut left and of the one recovery opened.
func (c *walSegCrash) Audit() error {
	if err := c.stack.Audit(); err != nil {
		return err
	}
	if err := c.sl.Audit(); err != nil {
		return fmt.Errorf("the log at the cut: %w", err)
	}
	return c.rec.Audit()
}

func (c *walSegCrash) writeSnapshot(p *sim.Proc, ckpt int64) error {
	keys := make([]string, 0, len(c.applied))
	for k := range c.applied {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:], walSegSnapMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(ckpt))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(keys)))
	var scratch [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(k)))
		buf = append(buf, scratch[:2]...)
		buf = append(buf, k...)
		binary.LittleEndian.PutUint32(scratch[:], integrity.PageCRC([]byte(c.applied[k])))
		buf = append(buf, scratch[:]...)
	}
	binary.LittleEndian.PutUint32(scratch[:], integrity.PageCRC(buf))
	buf = append(buf, scratch[:]...)
	off := int64(c.snapN%2) * walSegSnapSlot
	c.snapN++
	if err := c.snap.WriteAt(p, off, buf); err != nil {
		return err
	}
	return c.snap.Sync(p)
}

// readSnapshot returns the newest valid snapshot slot's key→CRC map.
func (c *walSegCrash) readSnapshot(p *sim.Proc) (map[string]uint32, bool) {
	var best map[string]uint32
	bestCkpt := int64(-1)
	slot := make([]byte, walSegSnapSlot)
	for i := 0; i < 2; i++ {
		if err := c.snap.ReadAt(p, int64(i)*walSegSnapSlot, slot); err != nil {
			continue
		}
		if ckpt, crcs, ok := parseWalSegSnap(slot); ok && ckpt > bestCkpt {
			bestCkpt, best = ckpt, crcs
		}
	}
	return best, best != nil
}

func parseWalSegSnap(b []byte) (ckpt int64, crcs map[string]uint32, ok bool) {
	if len(b) < 20 || binary.LittleEndian.Uint32(b) != walSegSnapMagic {
		return 0, nil, false
	}
	ckpt = int64(binary.LittleEndian.Uint64(b[4:]))
	n := int(binary.LittleEndian.Uint32(b[12:]))
	off := 16
	crcs = make(map[string]uint32, n)
	for i := 0; i < n; i++ {
		if off+2 > len(b) {
			return 0, nil, false
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if off+kl+4 > len(b) {
			return 0, nil, false
		}
		key := string(b[off : off+kl])
		off += kl
		crcs[key] = binary.LittleEndian.Uint32(b[off:])
		off += 4
	}
	if off+4 > len(b) || integrity.PageCRC(b[:off]) != binary.LittleEndian.Uint32(b[off:]) {
		return 0, nil, false
	}
	return ckpt, crcs, true
}

// cutEveryFifthDump cuts the capacitor dump short on every fifth point,
// so recovery also faces half-dumped BA buffers on top of the
// stale-tail states ring recycling produces. Pure in i, as the campaign
// shrinker requires.
func cutEveryFifthDump(i int, plan *fault.Plan) {
	if i%5 == 3 {
		plan.CutDumpAfterPages = 1 + i%7
	}
}
