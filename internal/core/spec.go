package core

import (
	"fmt"

	"twobssd/internal/device"
	"twobssd/internal/pcie"
	"twobssd/internal/sim"
)

// Spec mirrors Table I of the paper: the headline specification of the
// prototype 2B-SSD.
type Spec struct {
	HostInterface string
	Protocol      string
	CapacityGB    int
	Architecture  string
	Medium        string
	CapacitorsUF  []float64
	BABufferBytes int
	MaxEntries    int
}

// DefaultSpec returns the Table I values of the prototype.
func DefaultSpec() Spec {
	return Spec{
		HostInterface: "PCIe Gen.3 x4",
		Protocol:      "NVMe 1.2",
		CapacityGB:    800,
		Architecture:  "Multiple channels/ways/cores",
		Medium:        "Single-bit NAND flash",
		CapacitorsUF:  []float64{270, 270, 270},
		BABufferBytes: 8 << 20, // 8 MB
		MaxEntries:    8,
	}
}

// Rows renders the spec as (item, description) pairs in Table I order.
func (s Spec) Rows() [][2]string {
	return [][2]string{
		{"Host interface", s.HostInterface},
		{"Protocol", s.Protocol},
		{"Capacity", fmt.Sprintf("%d GB", s.CapacityGB)},
		{"SSD architecture", s.Architecture},
		{"Storage medium", s.Medium},
		{"Capacitance of electrolytic capacitors", fmt.Sprintf("%.0f uF x %d", s.CapacitorsUF[0], len(s.CapacitorsUF))},
		{"BA-buffer size", fmt.Sprintf("%d MB", s.BABufferBytes>>20)},
		{"Max. entries of BA-buffer", fmt.Sprintf("%d", s.MaxEntries)},
	}
}

// Config assembles a full 2B-SSD: the ULL-class base device it
// piggybacks on, the BA-buffer geometry, the MMIO latency model, the
// internal-datapath firmware, the read DMA engine and the power-loss
// protection subsystem.
type Config struct {
	// Base is the block device the 2B-SSD piggybacks on (the paper's
	// prototype is built on the Z-SSD). Its FTL reservation is forced
	// to cover the recovery dump area.
	Base device.Profile

	// BABufferBytes is the byte-addressable buffer capacity (8 MB in
	// the prototype); MaxEntries the mapping-table size (8).
	BABufferBytes int
	MaxEntries    int

	// MMIO is the host-side BAR1 access model.
	MMIO pcie.Config

	// Internal datapath (BA_PIN / BA_FLUSH): firmware running on
	// InternalWorkers ARM cores, charging InternalPerPageCost per 4 KB
	// page moved. Calibrated to the paper's ~2.2 GB/s internal
	// bandwidth ceiling.
	InternalWorkers     int
	InternalPerPageCost sim.Duration

	// APIBaseCost models the ioctl + vendor-unique-command round trip
	// of BA_PIN/BA_FLUSH; InfoCost the lighter BA_GET_ENTRY_INFO.
	APIBaseCost sim.Duration
	InfoCost    sim.Duration

	// Read DMA engine: setup/interrupt overhead plus streaming rate.
	// Calibrated so a 4 KB DMA read takes ~58 µs (2.6x faster than
	// plain MMIO) and pays off from ~2 KB upward.
	DMABaseCost sim.Duration
	DMAMBps     int

	// Power-loss protection: back-up electrolytic capacitors and the
	// power drawn while dumping the BA-buffer to the reserved NAND
	// area. Energy budget = sum of 1/2 C V^2 over the capacitors.
	CapacitorsUF []float64
	CapVoltage   float64
	DumpPowerW   float64

	// PinAuthorizer models the OS permission check of Section III-C:
	// "only applications with permission to access the requested LBA
	// range are allowed to use this API". A nil authorizer allows all
	// pins (single-tenant use).
	PinAuthorizer func(lba uint64, pages int) error

	// Background scrubber: every ScrubInterval of virtual time the
	// firmware patrol-reads ScrubPagesPerPass logical pages (round
	// robin over the exported LBA space), rewriting pages whose reads
	// needed ECC retries before retention errors grow uncorrectable.
	// A zero ScrubInterval disables the scrubber (the default, so
	// existing experiment results are untouched). A zero
	// ScrubPagesPerPass with a non-zero interval scans 64 pages/pass.
	ScrubInterval     sim.Duration
	ScrubPagesPerPass int
}

// DefaultConfig returns the calibrated prototype configuration.
func DefaultConfig() Config {
	return Config{
		Base:                device.ULLSSD(),
		BABufferBytes:       8 << 20,
		MaxEntries:          8,
		MMIO:                pcie.DefaultConfig(),
		InternalWorkers:     2,
		InternalPerPageCost: 3700 * sim.Nanosecond,
		APIBaseCost:         5 * sim.Microsecond,
		InfoCost:            2 * sim.Microsecond,
		DMABaseCost:         37500 * sim.Nanosecond,
		DMAMBps:             200,
		CapacitorsUF:        []float64{270, 270, 270},
		CapVoltage:          12.0,
		DumpPowerW:          6.0,
	}
}

// SmallConfig scales the prototype down so one simulated drive costs
// milliseconds of host time: a 16 MB flash array (2×2 dies of 32 blocks
// of 32 pages, 20 % over-provisioned), a 64-page write buffer drained by
// 4 workers, and a 1 MB BA-buffer whose capacitor dump still fits the
// stock energy budget. The crash campaigns, the oracle fuzzer and the
// fleet drive it.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 256 * 4096
	return cfg
}

// CapacitorEnergyJ returns the stored back-up energy in joules.
func (c Config) CapacitorEnergyJ() float64 {
	var e float64
	for _, uf := range c.CapacitorsUF {
		e += 0.5 * uf * 1e-6 * c.CapVoltage * c.CapVoltage
	}
	return e
}
