package core

import (
	"fmt"

	"twobssd/internal/ftl"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// scrubber is the background patrol-read service: firmware that walks
// the exported LBA space round robin on a virtual-time cadence, reading
// cold pages so retention errors are found — and repaired by rewriting
// the page — while they are still within the ECC correction budget.
// This is the latent-error defence the wear/retention BER model
// otherwise leaves open: a page nobody reads accumulates raw bit errors
// until the first host read finds it uncorrectable.
type scrubber struct {
	s       *TwoBSSD
	cursor  ftl.LBA
	stopped bool

	cPasses, cScanned   *obs.Counter
	cRepaired, cSalvage *obs.Counter
	cCRCErrors          *obs.Counter
	hPass               *histo.H
}

func newScrubber(s *TwoBSSD) *scrubber {
	reg := s.o.Registry()
	sc := &scrubber{
		s:          s,
		cPasses:    reg.Counter("scrub.passes"),
		cScanned:   reg.Counter("scrub.scanned"),
		cRepaired:  reg.Counter("scrub.repaired"),
		cSalvage:   reg.Counter("scrub.salvaged"),
		cCRCErrors: reg.Counter("scrub.crc_errors"),
		hPass:      reg.Histo("scrub.pass_ns"),
	}
	if s.cfg.ScrubInterval > 0 {
		s.env.GoDaemon("2bssd.scrub", sc.loop)
	}
	return sc
}

// loop is the scrub daemon. Its pending sleep keeps an event scheduled,
// so — unlike a daemon parked on a Signal — it would prevent Env.Run
// from ever returning; StopScrub sets the flag and the next wake-up
// exits the process.
func (sc *scrubber) loop(p *sim.Proc) {
	for {
		p.Sleep(sc.s.cfg.ScrubInterval)
		if sc.stopped {
			return
		}
		if !sc.s.powered {
			continue // nothing to patrol while the device is off
		}
		if err := sc.pass(p); err != nil {
			panic(fmt.Sprintf("2bssd: scrub pass: %v", err))
		}
	}
}

// pass patrol-reads one batch of pages from the cursor.
func (sc *scrubber) pass(p *sim.Proc) error {
	s := sc.s
	n := s.cfg.ScrubPagesPerPass
	if n <= 0 {
		n = 64
	}
	total := ftl.LBA(s.dev.Pages())
	if total == 0 {
		return nil
	}
	start := s.env.Now()
	sp := s.o.Tracer().Begin("2bssd.scrub", "2bssd", "scrub_pass")
	defer sp.End()
	for i := 0; i < n; i++ {
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

// ScrubPass runs one scrub batch synchronously on the calling process —
// the pull-style entry point for tests and workloads that want patrol
// reads without the background cadence.
func (s *TwoBSSD) ScrubPass(p *sim.Proc) error {
	if err := s.checkPower(); err != nil {
		return err
	}
	return s.scrub.pass(p)
}

// StopScrub shuts the background scrubber down. Workloads that enable
// ScrubInterval must call this before expecting Env.Run to return: the
// daemon's pending timer is an event, and the simulation only finishes
// when the event queue drains.
func (s *TwoBSSD) StopScrub() { s.scrub.stopped = true }
