package system

import (
	"epiphany/internal/power"
	"epiphany/internal/sim"
)

// EnergyCounters snapshots the board's event-sourced activity counters
// for the energy model: per-core active cycles and flops, scratchpad
// and shared-DRAM bytes, on-chip mesh byte-hops, off-chip eLink bytes
// (both directions) and chip-to-chip crossing bytes. elapsed is the
// run's simulated duration (the idle-cycle and leakage window). The
// counters accrue unconditionally on the fabric's hot paths - as bare
// integer increments, never allocations - so capturing them here is a
// pure read: a run looks exactly the same whether or not anyone asks
// for its energy.
func (s *System) EnergyCounters(elapsed sim.Time) power.Counters {
	fab := s.chip.Fabric()
	var active sim.Time
	var flops uint64
	for i := 0; i < s.chip.NumCores(); i++ {
		c := s.chip.Core(i)
		active += c.ComputeTime()
		flops += c.Flops()
	}
	var sramBytes uint64
	for _, sram := range fab.SRAMs {
		sramBytes += sram.AccessedBytes()
	}
	return power.Counters{
		Cores:         s.chip.NumCores(),
		ElapsedCycles: elapsed.CoreCycles(),
		ActiveCycles:  active.CoreCycles(),
		Flops:         flops,
		SRAMBytes:     sramBytes,
		DRAMBytes:     fab.DRAM.AccessedBytes(),
		MeshByteHops:  fab.Mesh.HopBytes(),
		ELinkBytes:    fab.ELink.TotalServedBytes() + fab.ELinkReadBytes(),
		C2CBytes:      fab.Mesh.CrossBytes() + fab.Mesh.CrossReadBytes(),
	}
}
