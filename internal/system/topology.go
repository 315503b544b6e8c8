package system

import (
	"fmt"

	"epiphany/internal/mem"
	"epiphany/internal/power"
	"epiphany/internal/sim"
)

// Topology describes the simulated fabric a System is built on: a board
// of ChipGridRows x ChipGridCols Epiphany chips, each CoreRows x
// CoreCols cores, glued into one mesh through chip-to-chip eLinks. A
// 1x1 chip grid is an ordinary single-chip device; larger grids model
// multi-board setups such as Parallella clusters, where hops that cross
// a chip boundary pay the off-chip eLink's lower bandwidth and share it
// through its merge arbiter.
type Topology struct {
	// Name identifies the topology in listings and options ("e64",
	// "cluster-2x2", ...). Ad-hoc topologies may leave it empty.
	Name string
	// ChipGridRows, ChipGridCols are the chips on the board.
	ChipGridRows, ChipGridCols int
	// CoreRows, CoreCols are the cores per chip.
	CoreRows, CoreCols int
	// C2CBytePeriod and C2CHopLatency override the chip-to-chip eLink
	// timing on multi-chip boards: the per-byte serialization period and
	// the per-crossing head latency, in sim.Time units (1/3 ns). Zero
	// keeps the calibrated defaults (noc.C2CBytePeriod = 5, one byte per
	// core cycle at the raw 600 MB/s link rate; noc.C2CHopLatency = 60,
	// 12 core cycles). Overrides are part of the topology's identity:
	// two Topology values with different overrides describe different
	// boards, are pooled separately by Runner, and may be swept as an
	// experiment axis. They have no effect on a single-chip board.
	C2CBytePeriod sim.Time
	C2CHopLatency sim.Time
	// Power names the power-model preset (power.ModelByName) used to
	// derive energy metrics from the run's activity counters; empty
	// means no energy accounting. DVFS selects the operating point the
	// derivation is evaluated at - "FREQ[MHz]@VOLT[V]" or "nominal";
	// empty means the model's nominal point; it requires Power. Like
	// the C2C overrides, both are part of the topology's identity (a
	// board metered under a different model or clocked at a different
	// point is a different experiment axis value, pooled separately by
	// Runner) - but neither perturbs the simulation itself: the
	// time-domain metrics of a run are bit-identical with any Power and
	// DVFS setting, because energy is derived from counters after the
	// fact.
	Power string
	DVFS  string
}

// Preset topologies. E64 is the paper's device and the default
// everywhere a topology is not given.
var (
	// E16 is a single Epiphany-III E16G301: one 4x4 chip.
	E16 = Topology{Name: "e16", ChipGridRows: 1, ChipGridCols: 1, CoreRows: 4, CoreCols: 4}
	// E64 is a single Epiphany-IV E64G401: one 8x8 chip (the default).
	E64 = Topology{Name: "e64", ChipGridRows: 1, ChipGridCols: 1, CoreRows: 8, CoreCols: 8}
	// Cluster2x2 is a 2x2 cluster of Parallella boards (one E16 each):
	// four 4x4 chips forming an 8x8 core mesh with chip-to-chip eLink
	// boundaries after row 3 and column 3.
	Cluster2x2 = Topology{Name: "cluster-2x2", ChipGridRows: 2, ChipGridCols: 2, CoreRows: 4, CoreCols: 4}
)

// SingleChip returns the topology of one rows x cols chip.
func SingleChip(rows, cols int) Topology {
	return Topology{ChipGridRows: 1, ChipGridCols: 1, CoreRows: rows, CoreCols: cols}
}

// Topologies lists the preset topologies in scaling order.
func Topologies() []Topology { return []Topology{E16, E64, Cluster2x2} }

// TopologyByName looks up a preset topology.
func TopologyByName(name string) (Topology, bool) {
	for _, t := range Topologies() {
		if t.Name == name {
			return t, true
		}
	}
	return Topology{}, false
}

// Rows returns the total core rows of the board mesh.
func (t Topology) Rows() int { return t.ChipGridRows * t.CoreRows }

// Cols returns the total core columns of the board mesh.
func (t Topology) Cols() int { return t.ChipGridCols * t.CoreCols }

// NumChips returns the chips on the board.
func (t Topology) NumChips() int { return t.ChipGridRows * t.ChipGridCols }

// NumCores returns the total core count.
func (t Topology) NumCores() int { return t.Rows() * t.Cols() }

// MultiChip reports whether any mesh route can cross a chip boundary.
func (t Topology) MultiChip() bool { return t.NumChips() > 1 }

// WithC2C returns a copy of t with the chip-to-chip eLink timing
// overridden (zero arguments keep the calibrated defaults). The copy is
// a distinct board identity; see the field documentation.
func (t Topology) WithC2C(bytePeriod, hopLatency sim.Time) Topology {
	t.C2CBytePeriod, t.C2CHopLatency = bytePeriod, hopLatency
	return t
}

// WithShards returns t unchanged: every board runs one event heap.
//
// Deprecated: the shard partition was removed; the benchmark catch-up
// deletes this shim.
func (t Topology) WithShards(int) Topology { return t }

// WithPower returns a copy of t carrying the named power-model preset
// and DVFS operating point ("" = the model's nominal). The copy is a
// distinct experiment-axis identity; see the field documentation.
func (t Topology) WithPower(model, dvfs string) Topology {
	t.Power, t.DVFS = model, dvfs
	return t
}

// String renders the geometry for listings.
func (t Topology) String() string {
	name := t.Name
	if name == "" {
		name = "custom"
	}
	if !t.MultiChip() {
		return fmt.Sprintf("%s: 1 chip, %dx%d cores", name, t.CoreRows, t.CoreCols) + t.powerSuffix()
	}
	s := fmt.Sprintf("%s: %dx%d chips of %dx%d cores (%dx%d mesh)",
		name, t.ChipGridRows, t.ChipGridCols, t.CoreRows, t.CoreCols, t.Rows(), t.Cols())
	// Only overridden fields are shown: a zero keeps the calibrated
	// default, and printing "hop=0" would read as free crossings.
	switch {
	case t.C2CBytePeriod > 0 && t.C2CHopLatency > 0:
		s += fmt.Sprintf(" [c2c byte=%d hop=%d]", t.C2CBytePeriod, t.C2CHopLatency)
	case t.C2CBytePeriod > 0:
		s += fmt.Sprintf(" [c2c byte=%d]", t.C2CBytePeriod)
	case t.C2CHopLatency > 0:
		s += fmt.Sprintf(" [c2c hop=%d]", t.C2CHopLatency)
	}
	return s + t.powerSuffix()
}

// powerSuffix renders the energy-axis identity for String.
func (t Topology) powerSuffix() string {
	switch {
	case t.Power != "" && t.DVFS != "":
		return fmt.Sprintf(" [power=%s dvfs=%s]", t.Power, t.DVFS)
	case t.Power != "":
		return fmt.Sprintf(" [power=%s]", t.Power)
	}
	return ""
}

// Validate checks the geometry without building a board.
func (t Topology) Validate() error {
	if t.ChipGridRows <= 0 || t.ChipGridCols <= 0 || t.CoreRows <= 0 || t.CoreCols <= 0 {
		return fmt.Errorf("epiphany: invalid topology %dx%d chips of %dx%d cores",
			t.ChipGridRows, t.ChipGridCols, t.CoreRows, t.CoreCols)
	}
	// Cap each factor before multiplying: with all four at most 64 the
	// products below cannot overflow, so absurd parsed dimensions
	// (9223372036854775807x1) fail here instead of wrapping around the
	// fit check.
	if t.ChipGridRows > 64 || t.ChipGridCols > 64 || t.CoreRows > 64 || t.CoreCols > 64 ||
		mem.FirstRow+t.Rows() > 64 || mem.FirstCol+t.Cols() > 64 {
		return fmt.Errorf("epiphany: %dx%d board does not fit the 64x64 mesh address space at origin (%d,%d)",
			min(t.ChipGridRows, 64)*min(t.CoreRows, 64), min(t.ChipGridCols, 64)*min(t.CoreCols, 64),
			mem.FirstRow, mem.FirstCol)
	}
	// sim.Time is unsigned, so "negative" overrides cannot be expressed;
	// guard instead against absurd values that would overflow the
	// store-and-forward arithmetic (a full second per byte is already
	// nine orders of magnitude beyond any physical link).
	if t.C2CBytePeriod > sim.Second || t.C2CHopLatency > sim.Second {
		return fmt.Errorf("epiphany: chip-to-chip override out of range (byte=%d hop=%d units; max %d)",
			t.C2CBytePeriod, t.C2CHopLatency, sim.Second)
	}
	if t.DVFS != "" && t.Power == "" {
		return fmt.Errorf("epiphany: DVFS point %q requires a power model", t.DVFS)
	}
	if t.Power != "" {
		m, err := power.ResolveModel(t.Power)
		if err != nil {
			return err
		}
		if _, err := m.Point(t.DVFS); err != nil {
			return err
		}
	}
	return nil
}
