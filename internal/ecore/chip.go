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

// NewChipMap builds the device fabric for an explicit address map with
// the auto shard partition (one shard per chip on multi-chip maps; see
// NewChipMapShards).
func NewChipMap(eng *sim.Engine, amap *mem.Map) *Chip {
	return NewChipMapShards(eng, amap, 0)
}

// NewChipMapShards builds the device fabric for an explicit address map
// on an explicit event-engine partition. shards selects how the board's
// chips are distributed over engine shards: 0 (auto) gives every chip
// its own shard, 1 keeps the whole board on shard 0 (the classic
// single-heap engine), and 2..NumChips group the chips contiguously.
// Under any partition shard 0 stays the sys shard owning the host, the
// eLink arbiter and DRAM, and every core, its SRAM-arrival condition,
// and its DMA engine are owned by their chip's shard. The partition
// never changes the simulated schedule - events execute in the same
// canonical (time, tag, shard, seq) order, so Metrics are bit-identical
// for every value; it only decides which heap holds each event and which
// transfers post across shards. Single-chip maps always keep everything
// on shard 0.
func NewChipMapShards(eng *sim.Engine, amap *mem.Map, shardCount int) *Chip {
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
	gridRows, gridCols := amap.ChipGrid()
	nChips := gridRows * gridCols
	if shardCount <= 0 || shardCount > nChips {
		shardCount = nChips
	}
	if nChips > 1 && shardCount > 1 {
		base := eng.NumShards()
		eng.AddShards(shardCount)
		// Chips are grouped contiguously: chip i runs on shard
		// base + i*shardCount/nChips, which is one chip per shard when
		// shardCount == nChips.
		shards := make([]*sim.Shard, nChips)
		for i := range shards {
			shards[i] = eng.Shard(base + i*shardCount/nChips)
		}
		fab.ShardOf = make([]*sim.Shard, n)
		for i := 0; i < n; i++ {
			fab.ShardOf[i] = shards[fab.Mesh.ChipOf(i)]
		}
		fab.Mesh.AttachShards(shards)
	}
	ch := &Chip{eng: eng, fab: fab}
	fab.Notify = ch.notifyWrite
	ch.arrival = make([]*sim.Cond, n)
	ch.cores = make([]*Core, n)
	for i := 0; i < n; i++ {
		ch.arrival[i] = sim.NewCondIdxOn(fab.CoreShard(i), "arrival:core", i)
		ch.cores[i] = newCore(ch, i)
	}
	return ch
}

// Reset returns the chip to its just-constructed state - fabric
// occupancy and statistics cleared, memories zeroed, per-core state
// blank - so a recycled board replays any experiment bit-identically to
// a fresh one. The engine must be reset (or quiescent) first; cores with
// kernels still running make the recycled state undefined.
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
func (ch *Chip) DRAM() *mem.DRAM { return ch.fab.DRAM }

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
// costs before calling Launch). It returns the process for joining.
func (ch *Chip) Launch(i int, name string, kernel func(*Core)) *sim.Proc {
	c := ch.cores[i]
	if c.proc != nil && !c.proc.Finished() {
		panic(fmt.Sprintf("ecore: core %d launched while already running", i))
	}
	sys := ch.eng.Sys()
	p := sys.SpawnOn(c.sh, sys.Now(), name, func(p *sim.Proc) {
		c.proc = p
		defer func() { c.proc = nil }()
		kernel(c)
	})
	c.proc = p
	return p
}
