package core

import (
	"epiphany/internal/power"
	"epiphany/internal/sim"
)

// Metrics is the common performance summary every workload result
// reports, mirroring how the paper presents performance: achieved
// GFLOPS, percentage of the 2-flop/cycle/core peak, and - for runs that
// page operands through shared DRAM - the compute/transfer
// decomposition of Table VI.
type Metrics struct {
	// Elapsed is the simulated device time of the run.
	Elapsed sim.Time
	// TotalFlops counts the useful floating-point operations the run is
	// credited with (redundant halo recomputation is excluded).
	TotalFlops uint64
	GFLOPS     float64
	PctPeak    float64
	// ComputeTime and TransferTime decompose off-chip runs as Table VI
	// does (summed over cores); both are zero when not measured.
	ComputeTime  sim.Time
	TransferTime sim.Time
	// ELinkCrossings, ELinkCrossBytes and ELinkCrossTime report the
	// traffic routed over chip-to-chip eLinks on multi-chip boards: how
	// many boundary hops were taken, the bytes they carried, and the
	// accumulated time spent crossing (arbitration, off-chip
	// serialization, crossing latency). All zero on a single chip.
	ELinkCrossings  uint64
	ELinkCrossBytes uint64
	ELinkCrossTime  sim.Time

	// The energy domain, filled only when the run carried a power model
	// (WithPowerModel) and zero otherwise. Energy is derived from the
	// run's activity counters after the fact, so these fields are purely
	// additive: every time-domain field above is bit-identical with or
	// without them.

	// PowerModel and DVFS identify the model preset and canonical
	// operating-point label the energy figures were derived under.
	PowerModel string
	DVFS       string
	// WallTimeS is the run's wall-clock seconds at the operating
	// point's frequency (Elapsed counts nominal-clock units; a DVFS
	// point stretches or shrinks the wall clock without changing the
	// cycle-domain simulation).
	WallTimeS float64
	// EnergyJ is the run's total energy, AvgPowerW its mean draw over
	// WallTimeS, GFLOPSPerWatt the useful-flops efficiency
	// (TotalFlops/EnergyJ, in GFLOPS/W), and EDPJs the energy-delay
	// product in joule-seconds.
	EnergyJ       float64
	AvgPowerW     float64
	GFLOPSPerWatt float64
	EDPJs         float64
	// Energy is the per-component breakdown of EnergyJ.
	Energy power.Breakdown

	// Engine holds the event engine's scheduler counters when the run
	// requested them (WithEngineStats) and is nil otherwise. A pointer,
	// and omitted from JSON when nil, so the default Metrics - and every
	// golden, cached response and struct-equality comparison built on it
	// - is unchanged by the field's existence.
	Engine *sim.EngineStats `json:"Engine,omitempty"`
}

// PctCompute returns the Table VI "% Computation" column.
func (m Metrics) PctCompute() float64 {
	total := m.ComputeTime + m.TransferTime
	if total == 0 {
		return 0
	}
	return 100 * float64(m.ComputeTime) / float64(total)
}

// PctTransfer returns the Table VI "% Shared Mem Transfers" column.
func (m Metrics) PctTransfer() float64 {
	total := m.ComputeTime + m.TransferTime
	if total == 0 {
		return 0
	}
	return 100 * float64(m.TransferTime) / float64(total)
}

// AttachEnergy fills the energy-domain fields from a computed usage
// report. GFLOPS/Watt uses the run's useful flops (TotalFlops), the
// same numerator as the GFLOPS column, so efficiency and throughput
// stay comparable.
func (m *Metrics) AttachEnergy(u power.Usage) {
	m.PowerModel = u.Model
	m.DVFS = u.Point.String()
	m.WallTimeS = u.TimeS
	m.EnergyJ = u.EnergyJ
	m.AvgPowerW = u.AvgPowerW
	if u.EnergyJ > 0 {
		m.GFLOPSPerWatt = float64(m.TotalFlops) / 1e9 / u.EnergyJ
	}
	m.EDPJs = u.EDPJs
	m.Energy = u.Breakdown
}
