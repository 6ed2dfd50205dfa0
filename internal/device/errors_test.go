package device

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/sim"
)

// TestTimeoutBackoffErrorWrapping drives the device with injected
// transient command timeouts and verifies (a) the backoff path retries
// through to success rather than surfacing the transient, and (b) a
// real error raised while the timeout machinery is active is wrapped —
// matched by errors.Is through the device's context decoration, never
// by equality.
func TestTimeoutBackoffErrorWrapping(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{
		Seed:         11,
		TimeoutOneIn: 2, // roughly every other command times out
		TimeoutDelay: 50 * sim.Microsecond,
	})
	d := New(e, small(ULLSSD()))
	ps := d.PageSize()
	e.Go("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := d.WritePages(p, ftl.LBA(i), bytes.Repeat([]byte{byte(i)}, ps)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		if err := d.Drain(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		got := make([]byte, ps)
		for i := 0; i < 8; i++ {
			if err := d.ReadPagesInto(p, ftl.LBA(i), got); err != nil || got[0] != byte(i) {
				t.Errorf("read %d after timeouts: %v", i, err)
				return
			}
		}
		// A genuine failure under the same plan: corrupted page. The
		// device decorates it with command context, so equality would
		// miss — errors.Is must still match the sentinel.
		ppa, ok := d.FTL().PPAOf(3)
		if !ok {
			t.Error("lba 3 not mapped")
			return
		}
		d.Flash().CorruptPage(ppa, 1)
		err := d.ReadPagesInto(p, 3, got)
		if err == nil {
			t.Error("read of corrupted page succeeded")
			return
		}
		if err == integrity.ErrPageCorrupt { //nolint:errorlint // proving the wrap
			t.Error("error returned unwrapped; context decoration missing")
		}
		if !errors.Is(err, integrity.ErrPageCorrupt) {
			t.Errorf("errors.Is failed to match through the wrap: %v", err)
		}
	})
	e.Run()
	if counter(t, e, "ULL-SSD.cmd_timeouts") == 0 {
		t.Error("no command timeouts injected; backoff path never ran")
	}
}
