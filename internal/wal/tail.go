// Tail readers: follow-the-tail streaming of committed records.
//
// Readers are served from a host-side retained-record cache (the
// page-cache analog a real WAL tails), gated at the durable frontier.
// The cache exists only once the first reader has been opened — a log
// nobody tails retains nothing — and holds every record appended from
// then on until a checkpoint truncates its segment. Entries are inserted
// when a record's position is reserved, under the log's lock, so the
// cache is in LSN order although stores land out of order; an entry
// below the durable frontier has landed (the log's append rule), so the
// frontier is the only gate. A reader lapped by truncation, or
// positioned below where caching began, gets a clean ErrTruncated,
// never garbage and never a silent gap.
package wal

import (
	"errors"
	"sort"

	"twobssd/internal/sim"
)

// Tail-reader errors.
var (
	// ErrTruncated tells a tail reader its position is no longer (or
	// never was) retained.
	ErrTruncated = errors.New("wal: position truncated by a checkpoint")

	// ErrReaderClosed reports a read on a closed tail reader.
	ErrReaderClosed = errors.New("wal: tail reader closed")
)

// tailRec is one record retained in host memory for tail readers until
// its segment truncates.
type tailRec struct {
	end     LSN      // LSN just past the record
	at      sim.Time // append instant, stamped when the store lands
	payload []byte   // the log's own copy (arena or Recover's read run); never written
}

// TailRecord is one committed record delivered to a tail reader.
//
// Payload is read-only: it is the log's retained copy of the record,
// shared with every other reader (and with whatever a reader hands it
// to), and it stays valid after its segment truncates. It never
// aliases the caller's Append buffer. Copy it before modifying it.
type TailRecord struct {
	LSN     LSN      // LSN just past the record (resume position)
	At      sim.Time // append instant
	Payload []byte
}

// TailReader streams committed records in LSN order, following the
// durable frontier. Readers see only whole, committed user records —
// never segment headers, padding, or volatile bytes.
type TailReader struct {
	l      *Log
	pos    int64
	closed bool
}

// Tail opens a reader positioned at from (use 0 for the whole log).
// The first reader switches record retention on, so open it before
// appending whatever it is meant to see.
func (l *Log) Tail(from LSN) *TailReader {
	if l.retained == nil {
		l.retained = make(map[int64][]tailRec)
		l.retainFrom = l.appendOff
	}
	return &TailReader{l: l, pos: int64(from)}
}

// stampRetained records that the record ending at end has reached the
// log buffer: its append instant is now. store stamps before it retires
// the record from storing, and the durable frontier never passes a
// store in flight, so every entry below the frontier is stamped.
func (l *Log) stampRetained(end int64) {
	recs := l.retained[(end-1)/l.fileBytes]
	i := sort.Search(len(recs), func(i int) bool { return int64(recs[i].end) >= end })
	if i < len(recs) && int64(recs[i].end) == end {
		recs[i].at = l.env.Now()
	}
}

// Pos returns the reader's resume position.
func (r *TailReader) Pos() LSN { return LSN(r.pos) }

// Close releases the reader and wakes anything parked in WaitTail.
func (r *TailReader) Close() {
	if !r.closed {
		r.closed = true
		r.l.moved.Fire()
	}
}

// TryNext returns the next committed record without blocking. ok=false
// with a nil error means the reader is caught up with the durable
// frontier; ErrTruncated means the reader's position is not retained.
func (r *TailReader) TryNext() (TailRecord, bool, error) {
	l := r.l
	for {
		if r.closed {
			return TailRecord{}, false, ErrReaderClosed
		}
		if r.pos < max(l.firstSeg*l.fileBytes, l.retainFrom) {
			return TailRecord{}, false, ErrTruncated
		}
		seg := r.pos / l.fileBytes
		recs := l.retained[seg]
		i := sort.Search(len(recs), func(i int) bool { return int64(recs[i].end) > r.pos })
		if i < len(recs) {
			if int64(recs[i].end) > l.durableOff {
				return TailRecord{}, false, nil // not committed yet
			}
			rec := recs[i]
			r.pos = int64(rec.end)
			l.cTailRecs.Inc()
			return TailRecord{LSN: rec.end, At: rec.at, Payload: rec.payload}, true, nil
		}
		if segEnd := (seg + 1) * l.fileBytes; l.durableOff >= segEnd {
			r.pos = segEnd // the rest of a sealed segment is padding
			continue
		}
		return TailRecord{}, false, nil
	}
}

// WaitTail parks until the durable frontier or retention window moves
// (tail consumers poll TryNext and park here between batches).
func (l *Log) WaitTail(p *sim.Proc) { l.moved.Wait(p) }

// WakeTail wakes every parked tail consumer so it can re-check its
// termination condition.
func (l *Log) WakeTail() { l.moved.Fire() }
