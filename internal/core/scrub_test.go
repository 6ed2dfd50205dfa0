package core

import (
	"bytes"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/sim"
)

// retentionBER returns a single-retry-step model where a page becomes
// correctable-with-retries after ~23 h of retention and uncorrectable
// after ~47 h: lambda = Base*(1+0.5h)*32768 bits crosses ECCBits=40 at
// 1+0.5h > 12.2 and the one-retry ceiling of 80 at 1+0.5h > 24.4.
func retentionBER() *fault.BERModel {
	return &fault.BERModel{
		Base:             1e-4,
		RetentionPerHour: 0.5,
		ECCBits:          40,
		RetrySteps:       1,
		RetryLatency:     60 * sim.Microsecond,
	}
}

// TestScrubRepairsRetentionErrors is the latent-error defence test: a
// page written once and never read accumulates retention errors. A
// patrol pass at 30 h finds it correctable-with-retries and rewrites
// it, resetting its retention age; at 60 h (uncorrectable territory for
// the original copy) the host read is clean. A control run without the
// scrub pass hits the uncorrectable salvage path instead.
func TestScrubRepairsRetentionErrors(t *testing.T) {
	const hour = 3600 * sim.Second
	run := func(scrub bool) (uncorrectable uint64, repaired uint64, data []byte) {
		e := sim.NewEnv()
		fault.Install(e, fault.Plan{Seed: 7, BER: retentionBER()})
		s := New(e, testConfig())
		ps := s.PageSize()
		want := bytes.Repeat([]byte{0x5C}, ps)
		e.Go("t", func(p *sim.Proc) {
			if err := s.Device().WritePages(p, 3, want); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if err := s.Device().Drain(p); err != nil {
				t.Errorf("drain: %v", err)
				return
			}
			p.Sleep(30 * hour)
			if scrub {
				if err := s.ScrubPass(p); err != nil {
					t.Errorf("scrub: %v", err)
					return
				}
			}
			p.Sleep(30 * hour)
			data = make([]byte, s.PageSize())
			if err := s.Device().ReadPagesInto(p, 3, data); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		})
		e.Run()
		return counter(t, e, "fault.uncorrectable_reads"), counter(t, e, "scrub.repaired"), data
	}

	uncorr, repaired, data := run(true)
	if repaired == 0 {
		t.Error("scrub pass repaired no pages; want at least the retention-aged page")
	}
	if uncorr != 0 {
		t.Errorf("with scrub: %d uncorrectable reads, want 0", uncorr)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0x5C}, len(data))) {
		t.Error("with scrub: read returned wrong data")
	}

	ctrlUncorr, ctrlRepaired, ctrlData := run(false)
	if ctrlRepaired != 0 {
		t.Errorf("control repaired %d pages without a scrub pass", ctrlRepaired)
	}
	if ctrlUncorr == 0 {
		t.Error("control hit no uncorrectable reads; retention model too weak for this test")
	}
	if !bytes.Equal(ctrlData, bytes.Repeat([]byte{0x5C}, len(ctrlData))) {
		t.Error("control: salvage read returned wrong data")
	}
}
