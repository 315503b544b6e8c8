// Package ecore assembles the simulated Epiphany chip and provides the
// per-core programming interface that kernels are written against. The
// interface deliberately mirrors the Epiphany SDK's C primitives (direct
// remote stores, e_dma_* descriptors, e_ctimer event timers, flag
// polling), so the kernels in internal/core read like the paper's
// listings.
package ecore

import (
	"fmt"

	"epiphany/internal/dma"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// Chip is one simulated Epiphany device plus its off-chip shared memory.
type Chip struct {
	eng     *sim.Engine
	fab     *dma.Fabric
	cores   []*Core
	arrival []*sim.Cond // per-core: broadcast when a remote write lands
}

// NewChip builds a rows x cols device (the Epiphany-IV is 8x8) attached
// to eng, with a fresh 32 MB shared DRAM window.
func NewChip(eng *sim.Engine, rows, cols int) *Chip {
	return NewChipMap(eng, mem.NewMap(rows, cols))
}

// NewChipMap builds the device fabric for an explicit address map: one
// chip or a board of them, every core on eng.
func NewChipMap(eng *sim.Engine, amap *mem.Map) *Chip {
	n := amap.NumCores()
	rows, cols := amap.Rows, amap.Cols
	fab := &dma.Fabric{
		Eng:       eng,
		Map:       amap,
		Mesh:      noc.NewMesh(eng, amap),
		ELink:     noc.NewELink(eng, rows, cols),
		ELinkRead: sim.NewResource("elink-read"),
		SRAMs:     mem.NewSRAMs(n),
		DRAM:      mem.NewDRAM(),
	}
	ch := &Chip{eng: eng, fab: fab}
	fab.Notify = ch.notifyWrite
	ch.arrival = make([]*sim.Cond, n)
	ch.cores = make([]*Core, n)
	for i := 0; i < n; i++ {
		ch.arrival[i] = sim.NewCondIdx(eng, "arrival:core", i)
		ch.cores[i] = newCore(ch, i)
	}
	return ch
}

// Reset returns the chip to its just-constructed state - fabric
// occupancy and statistics cleared, memories zeroed, per-core state
// blank - so a recycled board replays any experiment bit-identically to
// a fresh one. The engine must be reset first, which unwinds any kernel
// still parked.
func (ch *Chip) Reset() {
	ch.fab.Reset()
	for _, c := range ch.cores {
		c.reset()
	}
}

// Engine returns the simulation engine the chip runs on.
func (ch *Chip) Engine() *sim.Engine { return ch.eng }

// Fabric exposes the shared interconnect/memory bundle (host side and
// tests use it; kernels should stay within the Core API).
func (ch *Chip) Fabric() *dma.Fabric { return ch.fab }

// Map returns the chip's address map.
func (ch *Chip) Map() *mem.Map { return ch.fab.Map }

// DRAM returns the shared off-chip memory window.
func (ch *Chip) DRAM() *mem.Memory { return ch.fab.DRAM }

// NumCores returns the core count.
func (ch *Chip) NumCores() int { return len(ch.cores) }

// Core returns the core with chip-relative linear index i.
func (ch *Chip) Core(i int) *Core { return ch.cores[i] }

// CoreAt returns the core at chip-relative (row, col).
func (ch *Chip) CoreAt(row, col int) *Core {
	return ch.cores[ch.fab.Map.CoreIndex(row, col)]
}

// notifyWrite wakes any core polling its local memory. The wake carries
// no data; pollers re-check their predicate, as on hardware.
func (ch *Chip) notifyWrite(core int) {
	ch.arrival[core].Broadcast()
}

// Launch starts kernel on core i as a simulation process. The kernel
// begins at the current virtual time (the host model adds program-load
// costs before calling Launch). It returns the process for joining,
// valid until the engine's next Reset recycles it.
func (ch *Chip) Launch(i int, name string, kernel func(*Core)) *sim.Proc {
	c := ch.loading(i, kernel)
	c.proc = ch.eng.Spawn(name, c.run)
	return c.proc
}

// LaunchIdx is Launch for a process named prefix(row,col), such as one
// kernel of a workgroup; the name is formatted only if diagnostics ask
// for it.
func (ch *Chip) LaunchIdx(i int, prefix string, row, col int, kernel func(*Core)) *sim.Proc {
	c := ch.loading(i, kernel)
	c.proc = ch.eng.SpawnIdx(prefix, row, col, c.run)
	return c.proc
}

// loading checks that core i is free and hands it kernel.
func (ch *Chip) loading(i int, kernel func(*Core)) *Core {
	c := ch.cores[i]
	if c.proc != nil && !c.proc.Finished() {
		panic(fmt.Sprintf("ecore: core %d launched while already running", i))
	}
	c.kernel = kernel
	return c
}
