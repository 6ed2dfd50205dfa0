package core

import (
	"bytes"
	"errors"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
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
// scrub pass loses the page: its host read fails ECC and returns
// integrity.ErrPageCorrupt.
func TestScrubRepairsRetentionErrors(t *testing.T) {
	const hour = 3600 * sim.Second
	run := func(scrub bool) (lost, repaired uint64) {
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
			data := make([]byte, ps)
			switch err := s.Device().ReadPagesInto(p, 3, data); {
			case errors.Is(err, integrity.ErrPageCorrupt):
				lost++
			case err != nil:
				t.Errorf("read: %v", err)
			case !bytes.Equal(data, want):
				t.Error("read returned wrong data")
			}
		})
		e.Run()
		return lost, counter(t, e, "scrub.repaired")
	}

	lost, repaired := run(true)
	if repaired == 0 {
		t.Error("scrub pass repaired no pages; want at least the retention-aged page")
	}
	if lost != 0 {
		t.Errorf("with scrub: %d pages lost, want 0", lost)
	}

	ctrlLost, ctrlRepaired := run(false)
	if ctrlRepaired != 0 {
		t.Errorf("control repaired %d pages without a scrub pass", ctrlRepaired)
	}
	if ctrlLost == 0 {
		t.Error("control lost no page; retention model too weak for this test")
	}
}

// A patrol pass tells a lost page from a corrupted one: a page aged past
// the ECC budget counts in scrub.uncorrectable, a fresh page whose bytes
// no longer match their CRC in scrub.crc_errors, and neither in both.
func TestScrubCountsLossApartFromCRCErrors(t *testing.T) {
	const hour = 3600 * sim.Second
	e := sim.NewEnv()
	fault.Install(e, fault.Plan{Seed: 7, BER: retentionBER()})
	s := New(e, testConfig())
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		write := func(lba int) {
			if err := s.Device().WritePages(p, ftl.LBA(lba), bytes.Repeat([]byte{byte(lba)}, ps)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := s.Device().Drain(p); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		write(3)
		p.Sleep(60 * hour) // past the ECC budget
		write(4)
		ppa, _ := s.Device().FTL().PPAOf(4)
		if !s.Device().Flash().CorruptPage(ppa, 1) {
			t.Fatal("lba 4 holds no bytes")
		}
		if err := s.ScrubPass(p); err != nil {
			t.Fatalf("scrub: %v", err)
		}
	})
	e.Run()
	if lost, crc := counter(t, e, "scrub.uncorrectable"), counter(t, e, "scrub.crc_errors"); lost != 1 || crc != 1 {
		t.Fatalf("scrub.uncorrectable %d, scrub.crc_errors %d; want 1 each", lost, crc)
	}
}
