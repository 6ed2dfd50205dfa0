package core

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

// TestDumpTornErrorWrapping cuts the capacitor dump mid-flight and
// verifies the failure is reported as a wrapped ErrDumpTorn: equality
// must miss (the error carries the underlying cause) and errors.Is must
// match.
func TestDumpTornErrorWrapping(t *testing.T) {
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{CutDumpAfterPages: 1})
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 10, 2); err != nil {
			t.Errorf("pin: %v", err)
			return
		}
		if err := s.Mmio().Write(p, 0, bytes.Repeat([]byte{0x5A}, 2*ps)); err != nil {
			t.Errorf("mmio write: %v", err)
			return
		}
		_, err := s.PowerLoss(p)
		if err == nil {
			t.Error("power loss with a cut dump reported success")
			return
		}
		if err == ErrDumpTorn { //nolint:errorlint // proving the wrap
			t.Error("ErrDumpTorn returned unwrapped; cause decoration missing")
		}
		if !errors.Is(err, ErrDumpTorn) {
			t.Errorf("errors.Is failed to match through the wrap: %v", err)
		}
		// The all-or-nothing contract after a torn dump: recovery comes
		// up empty rather than replaying half an image.
		if err := s.PowerOn(p); err != nil {
			t.Errorf("power on: %v", err)
			return
		}
		if len(s.Entries()) != 0 {
			t.Error("entries revived from a torn dump")
		}
	})
	e.Run()
}
