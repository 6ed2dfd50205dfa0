// WalLifecycle is the pure reference model for the segmented WAL's
// lifecycle semantics (a ring-geometry internal/wal.Log): which records exist,
// which are committed, which checkpoints were issued with which
// snapshot, and — after a crash — whether a claimed recovery outcome
// is even possible. It is driven alongside the real log by the crash
// drivers in internal/bench and consulted during recovery
// verification; it never touches the simulated stack.
//
// The model deliberately checks only "no phantoms, no impossible
// states": a recovered record must be one the driver really appended,
// byte for byte and in LSN order; a recovered checkpoint must be one
// the driver really issued (or zero); a recovered snapshot must be one
// the driver really persisted at a checkpoint at least as new as the
// recovered checkpoint LSN. Completeness — no committed record lost —
// is the campaign's committed-minus-recovered accounting, which has
// the crash timeline the model does not.
package oracle

import "fmt"

// WalRecord is one appended record in the lifecycle model.
type WalRecord struct {
	Key     string
	Payload string
	Start   int64 // LSN where the record begins
	End     int64 // LSN just past the record (the commit target)
}

// WalLifecycle models a segmented WAL stream.
type WalLifecycle struct {
	records   []WalRecord     // in append (= LSN) order
	byEnd     map[int64]int   // End LSN -> index into records
	committed int64           // highest End passed to Commit
	ckpts     map[int64]bool  // checkpoint LSNs issued
	snaps     []lifecycleSnap // snapshots persisted at checkpoints
}

type lifecycleSnap struct {
	ckpt int64
	snap map[string]string
}

// NewWalLifecycle returns an empty lifecycle model.
func NewWalLifecycle() *WalLifecycle {
	return &WalLifecycle{
		byEnd: make(map[int64]int),
		ckpts: map[int64]bool{0: true},
	}
}

// Append records a log append at [start, end).
func (m *WalLifecycle) Append(key, payload string, start, end int64) {
	m.byEnd[end] = len(m.records)
	m.records = append(m.records, WalRecord{Key: key, Payload: payload, Start: start, End: end})
}

// Commit records that the stream is durable up to end.
func (m *WalLifecycle) Commit(end int64) {
	if end > m.committed {
		m.committed = end
	}
}

// Checkpoint records that the driver durably persisted snap and then
// checkpointed the log at lsn.
func (m *WalLifecycle) Checkpoint(lsn int64, snap map[string]string) {
	m.ckpts[lsn] = true
	cp := make(map[string]string, len(snap))
	for k, v := range snap {
		cp[k] = v
	}
	m.snaps = append(m.snaps, lifecycleSnap{ckpt: lsn, snap: cp})
}

// Committed returns the highest committed End LSN.
func (m *WalLifecycle) Committed() int64 { return m.committed }

// VerifyRecovery checks a claimed recovery outcome against the model
// and returns a phantom/impossibility description per defect (empty =
// consistent). recoveredCkpt is the checkpoint LSN recovery read back,
// replayed the records it replayed in order, snapshot the driver state
// restored from its snapshot file (nil = driver keeps no snapshot).
func (m *WalLifecycle) VerifyRecovery(recoveredCkpt int64, replayed []WalRecord, snapshot map[string]string) []string {
	var phantoms []string
	if !m.ckpts[recoveredCkpt] {
		phantoms = append(phantoms, fmt.Sprintf("recovered checkpoint %d was never issued", recoveredCkpt))
	}
	prev := recoveredCkpt
	for _, r := range replayed {
		idx, ok := m.byEnd[r.End]
		if !ok {
			phantoms = append(phantoms, fmt.Sprintf("replayed record ending at %d was never appended", r.End))
			continue
		}
		want := m.records[idx]
		if r.Key != want.Key || r.Payload != want.Payload || r.Start != want.Start {
			phantoms = append(phantoms, fmt.Sprintf("replayed record at %d differs from the appended one (key %q vs %q)", r.End, r.Key, want.Key))
		}
		if r.Start < prev {
			phantoms = append(phantoms, fmt.Sprintf("replay not in LSN order: record [%d,%d) after position %d", r.Start, r.End, prev))
		}
		if r.End <= recoveredCkpt {
			phantoms = append(phantoms, fmt.Sprintf("replayed record ending at %d is below the checkpoint %d", r.End, recoveredCkpt))
		}
		prev = r.End
	}
	if snapshot != nil {
		if !m.snapshotPossible(recoveredCkpt, snapshot) {
			phantoms = append(phantoms, "recovered snapshot matches no persisted checkpoint state")
		}
	}
	return phantoms
}

// snapshotPossible reports whether snapshot equals a snapshot the
// driver persisted at a checkpoint >= recoveredCkpt (the snapshot file
// may be newer than the WAL meta page — snapshots are written first —
// but never older, and never a state that was never persisted).
func (m *WalLifecycle) snapshotPossible(recoveredCkpt int64, snapshot map[string]string) bool {
	if len(m.snaps) == 0 {
		return len(snapshot) == 0
	}
	for _, s := range m.snaps {
		if s.ckpt < recoveredCkpt || len(s.snap) != len(snapshot) {
			continue
		}
		same := true
		for k, v := range s.snap {
			if snapshot[k] != v {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	// A fresh snapshot file is only possible while the WAL meta still
	// reads checkpoint zero: snapshots are persisted before the meta
	// page, so a durable checkpoint implies a durable snapshot.
	return recoveredCkpt == 0 && len(snapshot) == 0
}
