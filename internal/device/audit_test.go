package device

import (
	"bytes"
	"strings"
	"testing"

	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// busyDevice returns a device whose drain workers are still programming
// when its writer proc returns: writes pile up in the ring, hot LBAs
// coalesce in place and queue behind their own in-flight copies.
func busyDevice(t *testing.T, e *sim.Env) *Device {
	t.Helper()
	prof := small(ULLSSD())
	prof.Nand.ProgramLatency = 200 * sim.Microsecond
	return New(e, prof)
}

// writeHot writes n pages over a few hot LBAs, so a rewrite meets its
// LBA queued or in flight.
func writeHot(t *testing.T, p *sim.Proc, d *Device, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := d.WritePages(p, ftl.LBA(i%7), bytes.Repeat([]byte{byte(i)}, d.PageSize())); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// The write buffer audits clean whenever a proc can run: an auditor
// waking every microsecond beside two writers sees queued, coalesced
// and in-flight copies and never a broken index, and a warmed device
// audits without allocating.
func TestAuditHoldsUnderLoadWithoutAllocating(t *testing.T) {
	e := sim.NewEnv()
	defer e.Shutdown()
	d := busyDevice(t, e)
	writers, queued, inflight := 2, false, false
	for w := 0; w < writers; w++ {
		e.Go("w", func(p *sim.Proc) {
			writeHot(t, p, d, 200)
			writers--
		})
	}
	e.Go("audit", func(p *sim.Proc) {
		for writers > 0 || d.BufferedPages() > 0 {
			if err := d.Audit(); err != nil {
				t.Fatalf("t=%v: %v", e.Now(), err)
			}
			queued, inflight = queued || d.queued > 0, inflight || d.inflight > 0
			if d.queued > 0 && d.inflight > 0 {
				if allocs := testing.AllocsPerRun(100, func() { _ = d.Audit() }); allocs != 0 {
					t.Fatalf("Audit allocated %.1f times per run, want 0", allocs)
				}
			}
			p.Sleep(sim.Microsecond)
		}
	})
	e.Run()
	if !queued || !inflight {
		t.Fatalf("the auditor saw queued copies %v, in-flight copies %v: the run exercised neither", queued, inflight)
	}
}

// Each planted break of the buffer's index fails the audit.
func TestAuditFindsPlantedBugs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(d *Device)
		want  string
	}{
		{"leftover record", func(d *Device) { d.byLBA[ftl.LBA(d.Pages()-1)] = &lbaBuf{} }, "no copy, queued or in flight"},
		{"slot without a queued copy", func(d *Device) { d.byLBA[d.ring[d.ringHead]].queued = false }, "has no queued copy"},
		{"queued count", func(d *Device) { d.queued-- }, "records hold a queued copy"},
		{"in-flight count", func(d *Device) { d.inflight++ }, "copies in flight"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEnv()
			defer e.Shutdown()
			d := busyDevice(t, e)
			e.Go("t", func(p *sim.Proc) {
				writeHot(t, p, d, 40)
				if d.queued == 0 || d.inflight == 0 {
					t.Fatalf("%d queued, %d in flight: plant into a buffer holding both", d.queued, d.inflight)
				}
				if err := d.Audit(); err != nil {
					t.Fatalf("before the plant: %v", err)
				}
				tc.plant(d)
				if err := d.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("audit = %v, want %q", err, tc.want)
				}
			})
			e.Run()
		})
	}
}
