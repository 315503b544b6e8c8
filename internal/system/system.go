// Package system owns the simulated board: the discrete-event engine,
// the Epiphany chip and the ARM host model, bundled as the single-use
// System every workload executes against. It sits below the public
// epiphany package (which aliases System) so that internal packages -
// notably workload and bench - can build and run boards without
// importing the package root.
package system

import (
	"fmt"

	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
)

// System is one simulated board: engine, chip and host. A System runs a
// single experiment; build a fresh one per run so that virtual time,
// memories and statistics start clean. The Runner in the workload
// package does exactly that, handing every job its own board.
type System struct {
	eng  *sim.Engine
	chip *ecore.Chip
	host *host.Host
	used bool
}

// New builds the standard 8x8 Epiphany-IV system.
func New() *System { return NewTopology(SingleChip(8, 8)) }

// NewTopology builds a system on the given fabric topology: a single
// chip, or a board of chips glued through chip-to-chip eLinks. When the
// topology carries chip-to-chip timing overrides (C2CBytePeriod,
// C2CHopLatency) they are applied to the board's mesh, so sweeps can
// treat the off-chip link speed as an experiment axis. Invalid
// geometries panic; call t.Validate first to get an error instead.
func NewTopology(t Topology) *System {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	amap := mem.NewBoardMap(t.ChipGridRows, t.ChipGridCols, t.CoreRows, t.CoreCols)
	chip := ecore.NewChipMap(eng, amap)
	if t.C2CBytePeriod > 0 || t.C2CHopLatency > 0 {
		chip.Fabric().Mesh.SetC2C(t.C2CBytePeriod, t.C2CHopLatency)
	}
	return &System{eng: eng, chip: chip, host: host.New(chip)}
}

// SetWorkers does nothing: every board runs on one event heap.
//
// Deprecated: the parallel shard scheduler was removed; run whole jobs
// concurrently with Runner.Workers instead.
func (s *System) SetWorkers(int) {}

// Chip returns the device for kernel-level programming.
func (s *System) Chip() *ecore.Chip { return s.chip }

// Host returns the ARM host model.
func (s *System) Host() *host.Host { return s.host }

// Engine returns the simulation engine (for advanced scheduling).
func (s *System) Engine() *sim.Engine { return s.eng }

// NewWorkgroup creates a workgroup on this system's chip.
func (s *System) NewWorkgroup(originRow, originCol, rows, cols int) (*sdk.Workgroup, error) {
	return sdk.NewWorkgroup(s.chip, originRow, originCol, rows, cols)
}

// Reset restores a used System to a pristine board - virtual time zero,
// memories zeroed, every statistic and link occupancy cleared - so the
// board, with the SRAM and DRAM blocks its runs wrote, can be
// recycled across experiments instead of reallocated. A
// recycled System is bit-deterministic with a fresh one: the same
// workload produces byte-identical Metrics either way (the conformance
// harness pins this). That holds after a failed run too: a deadlocked
// or panicked run has already unwound its procs, and Reset unwinds the
// ones a stopped run left parked, so every board is recyclable. Reset
// fails only when called from inside a run. The workload Runner uses
// Reset to pool boards across jobs.
func (s *System) Reset() error {
	if err := s.eng.Reset(); err != nil {
		return fmt.Errorf("epiphany: System not recyclable: %w", err)
	}
	s.chip.Reset()
	s.host.Reset()
	s.used = false
	return nil
}

// Footprint estimates the heap bytes the board holds between runs: the
// SRAM and DRAM blocks its runs have written, which Reset zeroes but
// keeps, plus its fixed cost - boardBytes, and coreBytes per core.
func (s *System) Footprint() int {
	fab := s.chip.Fabric()
	n := boardBytes + coreBytes*len(fab.SRAMs) + fab.DRAM.AllocatedBytes()
	for _, m := range fab.SRAMs {
		n += m.AllocatedBytes()
	}
	return n
}

// boardBytes and coreBytes estimate what a board holds besides the
// blocks its memories have allocated: the block tables (64 KB of them
// the DRAM window's) and chip structures, and per core the core's
// structures and the stacks of the kernel coroutines its engine keeps
// idle for the next run. Measured as the growth of the Go heap and
// stacks per board over pooled boards that ran every built-in kernel,
// less their blocks: 200 KB for an e16, 475 KB for an e64.
const (
	boardBytes = 96 << 10
	coreBytes  = 6 << 10
)

// Acquire reserves the System for one experiment. Workload
// implementations must call it before touching the board so that a
// stale System (whose virtual time and statistics are no longer clean)
// is refused instead of silently producing skewed numbers.
func (s *System) Acquire() error {
	if s.used {
		return fmt.Errorf("epiphany: a System runs one experiment; create a fresh one with NewSystem, or let Runner.RunBatch hand each workload its own board")
	}
	s.used = true
	return nil
}
