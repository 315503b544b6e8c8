// Package power is the event-sourced energy-accounting subsystem: a
// per-component energy Model prices the activity counters the simulator
// accumulates (core cycles, flops, memory bytes, mesh byte-hops, chip
// crossings) into joules, watts and GFLOPS/Watt, with DVFS operating
// points as an analytic frequency/voltage axis. It also carries the
// paper's §VIII Table VII cross-system comparison, with the Epiphany
// row computable from the model rather than transcribed.
package power

import "fmt"

// ChipWatts is the Epiphany-IV chip power the paper assumes ("assuming 2
// watts power usage"; the authors note the actual draw was not yet
// measured).
const ChipWatts = 2.0

// PeakGFLOPS is the chip's single-precision peak: 64 cores x 2
// flops/cycle x 600 MHz.
const PeakGFLOPS = 76.8

// GFLOPSPerWatt converts an achieved GFLOPS figure to efficiency under
// the nominal chip power.
func GFLOPSPerWatt(gflops float64) float64 { return gflops / ChipWatts }

// System is one row of the paper's Table VII.
type System struct {
	Name      string
	ChipWatts float64
	Cores     int
	MaxGFLOPS float64
	ClockGHz  float64
}

// PeakEfficiency returns the system's peak GFLOPS/Watt.
func (s System) PeakEfficiency() float64 { return s.MaxGFLOPS / s.ChipWatts }

// EpiphanyRowName is Table VII's label for the Epiphany row - shared by
// the Comparison literal and ComputedComparison's filter, so renaming
// the row cannot silently leave both a transcribed and a computed copy
// in the computed table.
const EpiphanyRowName = "Epiphany 64-core coprocessor"

// Comparison reproduces Table VII's systems, with every row - including
// the Epiphany's - transcribed from the paper's printed values. The
// computed counterpart is ComputedComparison, which derives the
// Epiphany row from an energy Model instead.
var Comparison = []System{
	{Name: "TI C6678 Multicore DSP", ChipWatts: 10, Cores: 8, MaxGFLOPS: 160, ClockGHz: 1.5},
	{Name: "Tilera 64-core chip", ChipWatts: 35, Cores: 64, MaxGFLOPS: 192, ClockGHz: 0.9},
	{Name: "Intel 80-core Terascale", ChipWatts: 97, Cores: 80, MaxGFLOPS: 1366.4, ClockGHz: 4.27},
	{Name: EpiphanyRowName, ChipWatts: ChipWatts, Cores: 64, MaxGFLOPS: PeakGFLOPS, ClockGHz: 0.6},
}

// ComputedComparison returns Table VII with the simulated Epiphany row
// computed from the energy model - peak GFLOPS from cores x 2
// flops/cycle x f, chip draw from the model's full-load calibration
// scenario - rather than transcribed from the paper. The static
// competitor rows keep their printed values (we have no model of their
// silicon).
func ComputedComparison(m *Model, cores int) []System {
	rows := make([]System, 0, len(Comparison))
	for _, s := range Comparison {
		if s.Name != EpiphanyRowName {
			rows = append(rows, s)
		}
	}
	rows = append(rows, System{
		Name:      fmt.Sprintf("Epiphany %d-core (%s, computed)", cores, m.Name),
		ChipWatts: m.PeakPowerW(cores, m.Nominal),
		Cores:     cores,
		MaxGFLOPS: m.PeakGFLOPS(cores, m.Nominal),
		ClockGHz:  m.Nominal.FreqMHz / 1e3,
	})
	return rows
}
