package epiphany

import (
	"epiphany/internal/power"
	"epiphany/internal/workload"
)

// The energy / DVFS API. A PowerModel prices the activity counters the
// simulator accumulates during every run (core cycles, flops, memory
// bytes, mesh byte-hops, chip crossings) into joules, watts and
// GFLOPS/Watt; DVFS operating points re-derive the same run at other
// frequency/voltage pairs analytically (cycle counts are
// frequency-invariant, so the time-domain metrics never move). Attach a
// model with WithPowerModel, or sweep it: SweepPlan.Power and
// SweepPlan.DVFS add energy columns and a frequency-scaling axis to any
// experiment grid.
type (
	// PowerModel is a per-component energy model with named presets
	// ("epiphany-iv-28nm" recovers the paper's ~2 W chip draw).
	PowerModel = power.Model
	// OperatingPoint is one DVFS frequency/voltage pair.
	OperatingPoint = power.OperatingPoint
	// EnergyBreakdown decomposes a run's energy by component, in joules.
	EnergyBreakdown = power.Breakdown
	// EnergyUsage is a computed energy report (total joules, average
	// watts, energy-delay product, per-component breakdown).
	EnergyUsage = power.Usage
	// PowerSystem is one row of the paper's Table VII cross-system
	// efficiency comparison.
	PowerSystem = power.System
)

// PowerModels lists the preset power-model names.
func PowerModels() []string { return power.Models() }

// PowerModelByName looks up a preset power model
// ("epiphany-iv-28nm", "epiphany-iii-65nm").
func PowerModelByName(name string) (*PowerModel, bool) { return power.ModelByName(name) }

// ParseDVFSPoint parses the DVFS axis spelling of an operating point:
// "FREQ[MHz]@VOLT[V]", e.g. "600MHz@1.0V" or "500@0.9". Frequency and
// voltage must be positive.
func ParseDVFSPoint(s string) (OperatingPoint, error) { return power.ParsePoint(s) }

// WithPowerModel attaches the named power-model preset and optional
// DVFS operating point ("" or "nominal" for the model's nominal) to a
// run: the Metrics gain EnergyJ, AvgPowerW, GFLOPSPerWatt, EDPJs and
// the per-component EnergyBreakdown, derived from the run's activity
// counters after the simulation completes. Energy accounting is purely
// additive - the time-domain metrics are bit-identical with or without
// it - so the model and point are per-run settings, not part of the
// board: Runner reuses one pooled board for runs under any of them.
func WithPowerModel(model, dvfs string) Option { return workload.WithPowerModel(model, dvfs) }

// UnwrapResult peels the decoration off a Result, returning the
// workload's own concrete result for type assertions (a run executed
// with WithPowerModel or WithEngineStats reports its Metrics through a
// wrapper).
func UnwrapResult(res Result) Result { return workload.Unwrap(res) }

// PowerComparison reproduces the paper's Table VII with every row - the
// Epiphany's included - transcribed from the printed values.
func PowerComparison() []PowerSystem { return power.Comparison }

// ComputedPowerComparison returns Table VII with the simulated Epiphany
// row computed from the energy model (peak GFLOPS from the geometry and
// clock, chip draw from the model's full-load calibration scenario)
// instead of transcribed.
func ComputedPowerComparison(m *PowerModel, cores int) []PowerSystem {
	return power.ComputedComparison(m, cores)
}
