package core

import (
	"fmt"

	"twobssd/internal/device"
	"twobssd/internal/pcie"
)

// Table1 renders Table I of the paper, the headline specification of
// the prototype, as (item, description) pairs in the table's order. The
// rows the simulator models come from DefaultConfig, so the table
// cannot drift from the configuration that produces the results.
func Table1() [][2]string {
	cfg := DefaultConfig()
	return [][2]string{
		{"Host interface", "PCIe Gen.3 x4"},
		{"Protocol", "NVMe 1.2"},
		{"Capacity", "800 GB"},
		{"SSD architecture", "Multiple channels/ways/cores"},
		{"Storage medium", "Single-bit NAND flash"},
		{"Capacitance of electrolytic capacitors", fmt.Sprintf("%.0f uF x %d", cfg.CapacitorsUF[0], len(cfg.CapacitorsUF))},
		{"BA-buffer size", fmt.Sprintf("%d MB", cfg.BABufferBytes>>20)},
		{"Max. entries of BA-buffer", fmt.Sprintf("%d", cfg.MaxEntries)},
	}
}

// Config assembles a full 2B-SSD: the ULL-class base device it
// piggybacks on, the BA-buffer geometry, the MMIO latency model and the
// power-loss protection subsystem. The firmware and DMA costs are
// calibrations of the prototype, constants in core.go.
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

	// Power-loss protection: back-up electrolytic capacitors, charged
	// to capVoltage. Energy budget = sum of 1/2 C V^2 over the
	// capacitors, spent at dumpPowerW while the BA-buffer is dumped to
	// the reserved NAND area.
	CapacitorsUF []float64
}

// The power-loss protection hardware of Section III-A4: the voltage the
// back-up capacitors charge to, and the power the drive draws while it
// dumps the BA-buffer on their energy.
const (
	capVoltage = 12.0
	dumpPowerW = 6.0
)

// DefaultConfig returns the calibrated prototype configuration.
func DefaultConfig() Config {
	return Config{
		Base:          device.ULLSSD(),
		BABufferBytes: 8 << 20,
		MaxEntries:    8,
		MMIO:          pcie.DefaultConfig(),
		CapacitorsUF:  []float64{270, 270, 270},
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
		e += 0.5 * uf * 1e-6 * capVoltage * capVoltage
	}
	return e
}
