package core

import (
	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// scrubber is the patrol-read service: firmware that walks the exported
// LBA space round robin, scrubPagesPerPass pages per ScrubPass, reading
// cold pages so retention errors are found — and repaired by rewriting
// the page — while they are still within the ECC correction budget.
// This is the latent-error defence the wear/retention BER model
// otherwise leaves open: a page nobody reads accumulates raw bit errors
// until the first host read finds it uncorrectable.
type scrubber struct {
	cursor ftl.LBA

	cPasses, cScanned   *obs.Counter
	cRepaired, cSalvage *obs.Counter
	cCRCErrors          *obs.Counter
	hPass               *histo.H
}

// scrubPagesPerPass is how many logical pages one ScrubPass patrols.
const scrubPagesPerPass = 64

func newScrubber(s *TwoBSSD) *scrubber {
	reg := s.o.Registry()
	return &scrubber{
		cPasses:    reg.Counter("scrub.passes"),
		cScanned:   reg.Counter("scrub.scanned"),
		cRepaired:  reg.Counter("scrub.repaired"),
		cSalvage:   reg.Counter("scrub.salvaged"),
		cCRCErrors: reg.Counter("scrub.crc_errors"),
		hPass:      reg.Histo("scrub.pass_ns"),
	}
}

// ScrubPass patrol-reads one batch of pages from the scrub cursor,
// synchronously on the calling process.
func (s *TwoBSSD) ScrubPass(p *sim.Proc) error {
	if err := s.checkPower(); err != nil {
		return err
	}
	sc := s.scrub
	total := ftl.LBA(s.dev.Pages())
	if total == 0 {
		return nil
	}
	start := s.env.Now()
	sp := s.o.Tracer().Begin("2bssd.scrub", "2bssd", "scrub_pass")
	defer sp.End()
	for i := 0; i < scrubPagesPerPass; i++ {
		lba := sc.cursor
		sc.cursor = (sc.cursor + 1) % total
		r, err := s.dev.FTL().ScrubPage(p, lba)
		if err != nil {
			return err
		}
		if !r.Mapped {
			continue
		}
		sc.cScanned.Inc()
		if r.Corrupt {
			// The stored CRC no longer matches the (post-ECC) contents:
			// silent corruption below the ECC model. Count it — the read
			// paths will refuse to serve the page.
			sc.cCRCErrors.Inc()
		}
		if r.Salvaged {
			sc.cSalvage.Inc()
		}
		if r.Repaired {
			sc.cRepaired.Inc()
		}
	}
	sc.cPasses.Inc()
	sc.hPass.Observe(sim.Duration(s.env.Now() - start))
	return nil
}
