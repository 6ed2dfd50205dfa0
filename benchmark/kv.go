package main

import (
	"encoding/binary"
	"fmt"
)

// kv-ba and kv-block: YCSB-A against the LSM engine. 10 000 records of
// 256 B are 2.5 MB of live data against a 1 MB memtable and a 1 MB
// block cache, so reads reach the SSTs. Four closed-loop clients.
const (
	kvRecords     = 10000
	kvRecordsOver = 20000 // limitLSMOverlap
	kvValueBytes  = 256
	kvClients     = 4
	kvWarmOps     = 150000
	kvOpsPerScale = 1000000 // measured ops at scale 1, the same for both modes
	// kvCrashRecords updates sit in the active log when the power goes.
	kvCrashRecords = 1500
)

// kvStack is a loaded, warmed store with the shadow state that says
// what every key must read as.
type kvStack struct {
	records int32
	sim     *Sim
	kv      *KV
	gen     *OpGen // formats keys
	idx     map[string]int32

	issued  []uint32 // highest version handed to Put, per key
	acked   []uint32 // highest version Put has acknowledged, per key
	lastSeq []int64  // issue sequence number of that version
	seq     int64
}

func kvValue(buf []byte, key int32, version uint32) []byte {
	binary.LittleEndian.PutUint64(buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], uint64(version))
	return buf
}

func newKVValue() []byte {
	v := make([]byte, kvValueBytes)
	for i := 16; i < len(v); i++ {
		v[i] = byte('a' + i%26)
	}
	return v
}

// checkValue says whether a value read for key is a version in
// [lo, hi]; anything else is a lost update or a phantom.
func checkValue(v []byte, key int32, lo, hi uint32) error {
	if len(v) != kvValueBytes {
		return fmt.Errorf("key %d: value of %d bytes", key, len(v))
	}
	if k := binary.LittleEndian.Uint64(v[0:]); k != uint64(key) {
		return fmt.Errorf("key %d: holds key %d's value", key, k)
	}
	if ver := binary.LittleEndian.Uint64(v[8:]); ver < uint64(lo) || ver > uint64(hi) {
		return fmt.Errorf("key %d: version %d outside [%d,%d]", key, ver, lo, hi)
	}
	return nil
}

// kvClient is one closed-loop client: its op stream and value buffer.
type kvClient struct {
	st   *kvStack
	r    *RunResult
	id   int32
	gen  *OpGen
	val  []byte
	root int32 // the client's span
}

// read gets key k and checks it against the shadow state.
func (cl *kvClient) read(p *Proc, key []byte, k int32) {
	st := cl.st
	lo := st.acked[k]
	v, ok, err := st.kv.Get(p, key)
	switch {
	case err != nil:
		cl.r.fail(1, "get: %v", err)
	case !ok:
		cl.r.fail(1, "key %d not found", k)
	default:
		if cerr := checkValue(v, k, lo, st.issued[k]); cerr != nil {
			cl.r.fail(1, "read: %v", cerr)
		}
	}
}

// update puts the next version of key k.
func (cl *kvClient) update(p *Proc, key []byte, k int32) {
	st := cl.st
	st.issued[k]++
	ver := st.issued[k]
	st.seq++
	st.lastSeq[k] = st.seq
	if err := st.kv.Put(p, key, kvValue(cl.val, k, ver)); err != nil {
		cl.r.fail(1, "put: %v", err)
	} else if ver > st.acked[k] {
		st.acked[k] = ver
	}
}

// runClients drives ops operations through kvClients closed-loop
// clients; the last one to finish runs atEnd. The error is a simulator
// fault.
func (st *kvStack) runClients(r *RunResult, seed int64, phase int, ops int, tr *Tracer, keep bool, atEnd func(p *Proc, last *kvClient)) (*phase, error) {
	ph := newPhase(kvClients, ops, 0.5, keep, st.sim.NowNs())
	active := kvClients
	per := ops / kvClients
	for c := 0; c < kvClients; c++ {
		cl := &kvClient{st: st, r: r, id: int32(c), val: newKVValue(),
			gen: NewOpGen(int64(st.records), kvValueBytes, clientSeed(seed, phase, c))}
		st.sim.Go(fmt.Sprintf("client%d", c), func(p *Proc) {
			cl.root = tr.Begin("client", cl.id, -1, st.sim.NowNs())
			for i := 0; i < per; i++ {
				read, key := cl.gen.Next()
				k := st.idx[string(key)]
				start := st.sim.NowNs()
				if read {
					ph.hashes[cl.id].add('r', uint64(k))
					sp := tr.Begin("read", cl.id, cl.root, start)
					cl.read(p, key, k)
					tr.End(sp, st.sim.NowNs())
				} else {
					ph.hashes[cl.id].add('u', uint64(k))
					sp := tr.Begin("update", cl.id, cl.root, start)
					cl.update(p, key, k)
					tr.End(sp, st.sim.NowNs())
				}
				ph.record(read, st.sim.NowNs()-start)
			}
			ph.clientDone(st.sim.NowNs())
			tr.End(cl.root, st.sim.NowNs())
			if active--; active == 0 && atEnd != nil {
				atEnd(p, cl)
			}
		})
	}
	err := st.sim.Run()
	return ph, err
}

func buildKV(mode KVMode, o RunOpts, r *RunResult) (*kvStack, error) {
	n := int32(kvRecords)
	if o.Limit == limitLSMOverlap {
		n = kvRecordsOver
	}
	st := &kvStack{
		records: n,
		sim:     NewSim(), gen: NewOpGen(int64(n), kvValueBytes, 0),
		idx:    make(map[string]int32, n),
		issued: make([]uint32, n), acked: make([]uint32, n),
		lastSeq: make([]int64, n),
	}
	for i := int32(0); i < n; i++ {
		st.idx[string(st.gen.Key(int64(i)))] = i
	}
	var loadErr error
	st.sim.Go("load", func(p *Proc) {
		if st.kv, loadErr = OpenKV(st.sim, p, mode); loadErr != nil {
			return
		}
		val := newKVValue()
		for i := int32(0); i < n; i++ {
			st.issued[i], st.acked[i] = 1, 1
			st.seq++
			st.lastSeq[i] = st.seq
			if loadErr = st.kv.Put(p, st.gen.Key(int64(i)), kvValue(val, i, 1)); loadErr != nil {
				return
			}
		}
	})
	if err := st.sim.Run(); err != nil {
		return st, err
	}
	if loadErr != nil {
		return st, fmt.Errorf("load: %w", loadErr)
	}
	warm := int(float64(kvWarmOps) * o.Setup)
	if _, err := st.runClients(r, o.Seed, 0, warm, nil, false, nil); err != nil {
		return st, err
	}
	return st, nil
}

func runKV(name string, mode KVMode, o RunOpts) *RunResult {
	r := newResult(name)
	ops := int(float64(kvOpsPerScale)*o.Measured) / kvClients * kvClients
	if ops < kvClients {
		ops = kvClients
	}
	r.Attempted = int64(ops)

	var st *kvStack
	err := timedSetups(r, o, func() (err error) {
		st, err = buildKV(mode, o, r)
		return err
	}, func() {
		st.sim.Close()
		st = nil // or the old stack stays reachable while the next one is built
	})
	if err != nil {
		r.fail(int64(ops), "set-up: %v", err)
		return r
	}
	defer st.sim.Close()

	before, lsm0, ev0 := st.sim.Counts(), st.kv.LSMCounts(), st.sim.Events()
	var (
		after  Counts
		lsm1   map[string]float64
		dumpNs int64
		perr   error
	)
	meter := startMeter()
	// The last client to finish closes the books, then keeps updating
	// until the engine has rotated its log and kvCrashRecords more
	// records sit in the fresh one, and cuts the log drive's power. That
	// makes recovery the same job on every seed: replay that many
	// records, write them out as an SST, serve the first read.
	ph, runErr := st.runClients(r, o.Seed, 1, ops, o.Tracer, true, func(p *Proc, last *kvClient) {
		r.setHost(meter.stop())
		after, lsm1, r.Events = st.sim.Counts(), st.kv.LSMCounts(), st.sim.Events()-ev0
		update := func() {
			_, key := last.gen.Next()
			last.update(p, key, st.idx[string(key)])
		}
		for rot := lsm1["rotations"]; st.kv.LSMCounts()["rotations"] == rot; {
			update()
		}
		for i := 0; i < kvCrashRecords; i++ {
			update()
		}
		dumpNs, perr = st.kv.PowerLoss(p)
	})
	if runErr != nil || after.C == nil {
		// The environment faulted: what was not issued has failed.
		r.setHost(meter.stop())
		r.fail(int64(ops)-ph.done, "measured phase: %v", runErr)
		after, lsm1, r.Events = st.sim.Counts(), st.kv.LSMCounts(), st.sim.Events()-ev0
	}
	r.Delta = after.Sub(before)
	r.setPhase(ph)
	userBytes := float64(len(ph.writes)) * (kvValueBytes + 20)
	if userBytes > 0 {
		r.E2E["sim_nand_bytes_per_user_byte"] = float64(r.Delta.C["nand.bytes_written"]) / userBytes
	}
	lookups := lsm1["cache_hits"] - lsm0["cache_hits"] + lsm1["cache_misses"] - lsm0["cache_misses"]
	if lookups > 0 {
		r.Layer["lsm.cache_hit_share"] = (lsm1["cache_hits"] - lsm0["cache_hits"]) / lookups
	}
	r.LSMOps, r.LSMLookups = float64(ph.done), lookups
	r.Layer["lsm.flushes"] = lsm1["flushes"] - lsm0["flushes"]
	r.Layer["lsm.compactions"] = lsm1["compactions"] - lsm0["compactions"]
	r.Layer["lsm.stall_us_per_op"] = (lsm1["stall_ns"] - lsm0["stall_ns"]) / 1e3 / float64(ops)

	switch {
	case runErr != nil:
	case perr != nil:
		r.fail(1, "power loss: %v", perr)
	default:
		st.recoverAndVerify(r, dumpNs)
	}
	return r
}

// recoverAndVerify reopens the store after the power loss and checks
// every record the surviving logs must hold.
//
// The engine keeps no manifest, so a reopened store serves the log-
// resident records only. Appends happen in issue order, so those are
// the updates from some issue number on: if any key comes back, every
// key whose last update is at least as recent must come back too, at
// exactly its last acknowledged version.
func (st *kvStack) recoverAndVerify(r *RunResult, dumpNs int64) {
	newest := int32(0)
	for k := range st.lastSeq {
		if st.lastSeq[k] > st.lastSeq[newest] {
			newest = int32(k)
		}
	}
	var upNs int64
	found := make([]bool, st.records)
	st.sim.Go("recover", func(p *Proc) {
		t0 := st.sim.NowNs()
		if err := st.kv.Reopen(p); err != nil {
			r.fail(1, "reopen: %v", err)
			return
		}
		// The first op after recovery: the most recent acknowledged update.
		v, ok, err := st.kv.Get(p, st.gen.Key(int64(newest)))
		if err != nil || !ok {
			r.fail(1, "first read after recovery: found=%v err=%v", ok, err)
		} else if cerr := checkValue(v, newest, st.acked[newest], st.acked[newest]); cerr != nil {
			r.fail(1, "first read after recovery: %v", cerr)
		}
		upNs = st.sim.NowNs() - t0
		for k := int32(0); k < st.records; k++ {
			v, ok, err := st.kv.Get(p, st.gen.Key(int64(k)))
			if err != nil {
				r.fail(1, "verify get: %v", err)
				continue
			}
			if !ok {
				continue
			}
			found[k] = true
			if cerr := checkValue(v, k, st.acked[k], st.acked[k]); cerr != nil {
				r.fail(1, "after recovery: %v", cerr) // stale (lost update) or phantom
			}
		}
	})
	if err := st.sim.Run(); err != nil {
		r.fail(1, "recovery: %v", err)
		return
	}
	oldest, nFound := int64(1)<<62, 0
	for k, ok := range found {
		if ok {
			nFound++
			if st.lastSeq[k] < oldest {
				oldest = st.lastSeq[k]
			}
		}
	}
	lost := 0
	for k, ok := range found {
		if !ok && st.lastSeq[k] >= oldest {
			lost++
		}
	}
	if lost > 0 {
		r.fail(int64(lost), "%d acknowledged updates lost across the power loss", lost)
	}
	r.E2E["sim_recovery_ms"] = float64(dumpNs+upNs) / 1e6
	r.Notes = append(r.Notes, fmt.Sprintf("recovery: dump %.3f ms + power-on, log replay and first read %.3f ms; %d keys log-resident and verified, %d lost",
		float64(dumpNs)/1e6, float64(upNs)/1e6, nFound, lost))
}
