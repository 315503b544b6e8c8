package ecore

import (
	"encoding/binary"
	"fmt"

	"epiphany/internal/dma"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// PollDetectCost is the time for a spinning core to notice a flag update
// after the write lands in its memory (a couple of loop iterations).
const PollDetectCost = 2 * sim.Cycle

// Core is the kernel-facing interface of one eCore. All timed operations
// must be called from the kernel's own simulation process (i.e. from
// inside the function passed to Chip.Launch).
type Core struct {
	chip   *Chip
	idx    int
	sram   *mem.SRAM
	dma    *dma.Engine
	proc   *sim.Proc
	kernel func(*Core)     // the launched kernel, until it ends
	run    func(*sim.Proc) // runKernel, bound once so a launch allocates no closure
	layout *mem.Layout
	timers [2]sim.Time
	flops  uint64
	// computeTime is the modelled compute time, the energy model's
	// active-cycle count.
	computeTime sim.Time
	// blocked wakes the core from BlockWriteDRAM; built on first use
	// and reused, since the CPU has at most one block in flight.
	blocked *sim.Cond
}

func newCore(ch *Chip, idx int) *Core {
	c := &Core{
		chip:   ch,
		idx:    idx,
		sram:   ch.fab.SRAMs[idx],
		dma:    dma.NewEngine(ch.fab, idx),
		layout: mem.NewLayout(),
	}
	c.run = c.runKernel
	return c
}

// runKernel is the body of the process Launch starts: the launched
// kernel, with the core marked idle once it ends (or is unwound).
func (c *Core) runKernel(p *sim.Proc) {
	defer func() { c.proc, c.kernel = nil, nil }()
	c.proc = p
	c.kernel(c)
}

// reset clears all per-core run state: timers, the flop and compute
// counters, the scratchpad layout plan and both DMA channels.
func (c *Core) reset() {
	c.proc, c.kernel = nil, nil
	c.layout.Reset()
	c.timers = [2]sim.Time{}
	c.flops, c.computeTime = 0, 0
	c.dma.Reset()
}

// Chip returns the owning chip.
func (c *Core) Chip() *Chip { return c.chip }

// Index returns the chip-relative linear core index.
func (c *Core) Index() int { return c.idx }

// Coords returns the chip-relative (row, col) of this core.
func (c *Core) Coords() (row, col int) { return c.chip.fab.Map.CoreCoords(c.idx) }

// Proc returns the simulation process currently running on the core.
func (c *Core) Proc() *sim.Proc {
	if c.proc == nil {
		panic(fmt.Sprintf("ecore: core %d has no running kernel", c.idx))
	}
	return c.proc
}

// Now returns the core's current virtual time: the running kernel's
// clock, or the engine clock when no kernel is active (e.g. the host
// reading a ctimer after completion).
func (c *Core) Now() sim.Time {
	if c.proc != nil {
		return c.proc.Now()
	}
	return c.chip.eng.Now()
}

// Local returns the core's scratchpad for functional access. Bulk
// arithmetic reads and writes it directly; the time for that work is
// charged separately through Compute with cycle counts from the isa
// package's pipeline model.
func (c *Core) Local() *mem.SRAM { return c.sram }

// Layout returns the core's scratchpad allocation plan.
func (c *Core) Layout() *mem.Layout { return c.layout }

// Global returns the global address of local offset off on this core.
func (c *Core) Global(off mem.Addr) mem.Addr { return c.chip.fab.Map.GlobalOf(c.idx, off) }

// GlobalOn returns the global address of offset off on core (row, col)
// (chip-relative), the e_get_global_address equivalent.
func (c *Core) GlobalOn(row, col int, off mem.Addr) mem.Addr {
	return c.chip.fab.Map.GlobalOf(c.chip.fab.Map.CoreIndex(row, col), off)
}

// Compute advances the core's clock by cycles of computation performing
// flops floating-point operations (tracked for GFLOPS accounting).
func (c *Core) Compute(cycles uint64, flops uint64) {
	c.flops += flops
	d := sim.Cycles(cycles)
	c.computeTime += d
	if r := c.chip.fab.Rec; r != nil && d > 0 {
		now := c.Proc().Now()
		r.CoreSpan(c.idx, noc.ActCompute, now, now+d)
	}
	c.Proc().Wait(d)
}

// Flops returns the floating-point operations the core has performed.
func (c *Core) Flops() uint64 { return c.flops }

// Idle advances the core's clock without doing work.
func (c *Core) Idle(d sim.Time) { c.Proc().Wait(d) }

// --- Direct (CPU-issued) remote writes: the "point-to-point write"
// transfer mode of §V-A. ---

// StoreGlobal32 issues one posted 32-bit store to a global address. The
// CPU moves on after one cycle; the value lands after the mesh latency.
// Used for flags and synchronization words.
func (c *Core) StoreGlobal32(a mem.Addr, v uint32) {
	p := c.Proc()
	fab := c.chip.fab
	tgt := fab.Map.Decode(c.idx, a)
	switch tgt.Kind {
	case mem.KindLocal:
		c.sram.Store32(tgt.Off, v)
		c.chip.notifyWrite(c.idx)
	case mem.KindCore, mem.KindDRAM:
		// Post copies the word at issue; a DRAM store lands at eLink
		// completion.
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		fab.Post(c.idx, tgt, b[:], 0)
	default:
		panic(fmt.Sprintf("ecore: store to unmapped address %#x", a))
	}
	p.Wait(sim.Cycle)
}

// CopyWordsTo models the unrolled direct-write copy loop of Listing 1:
// words 32-bit values are read from local memory at srcOff and stored
// into the destination global address. The CPU is busy for the loop's
// duration (the calibrated 6.6 cycles per word); the final word lands at
// the mesh arrival time.
func (c *Core) CopyWordsTo(dst mem.Addr, srcOff mem.Addr, words int) {
	p := c.Proc()
	fab := c.chip.fab
	tgt := fab.Map.Decode(c.idx, dst)
	n := 4 * words
	cpuDone := p.Now() + sim.Time(words)*noc.DirectWriteWordPeriod
	switch tgt.Kind {
	case mem.KindLocal:
		mem.Copy(c.sram, tgt.Off, c.sram, srcOff, n)
		c.chip.notifyWrite(c.idx)
	case mem.KindCore, mem.KindDRAM:
		fab.Post(c.idx, tgt, c.sram.View(srcOff, n), cpuDone)
	default:
		panic(fmt.Sprintf("ecore: copy to unmapped address %#x", dst))
	}
	p.WaitUntil(cpuDone)
}

// BlockWriteDRAM issues the §V-B micro-benchmark's saturation pattern:
// one block of n bytes stored to shared DRAM as a sequence of 4-byte
// stores. It blocks until the eLink has carried the block (the CPU cannot
// run ahead once the mesh back-pressures).
func (c *Core) BlockWriteDRAM(dramOff mem.Addr, srcOff mem.Addr, n int) {
	// The CPU blocks until the eLink carries the block: the write queues
	// between here and the link are tiny compared to a 2 KB block, so
	// back-pressure stalls the store loop almost immediately. The block
	// is copied into DRAM at eLink completion.
	p := c.Proc()
	fab := c.chip.fab
	if c.blocked == nil {
		c.blocked = sim.NewCondIdx(c.chip.eng, "dram-block:core", c.idx)
	}
	fab.ELink.Submit(c.idx, n, func() {
		fab.DRAM.Write(dramOff, c.sram.View(srcOff, n))
		c.blocked.Broadcast()
	})
	p.WaitCond(c.blocked)
}

// --- Flag polling (the `while (*flag < loopcount);` idiom). ---

// WaitLocal32GE spins until the local 32-bit word at off is >= v.
func (c *Core) WaitLocal32GE(off mem.Addr, v uint32) {
	p := c.Proc()
	start := p.Now()
	for c.sram.Load32(off) < v {
		p.WaitCond(c.chip.arrival[c.idx])
	}
	p.Wait(PollDetectCost)
	if r := c.chip.fab.Rec; r != nil {
		r.CoreSpan(c.idx, noc.ActFlagSpin, start, p.Now())
	}
}

// --- DMA (e_dma_set_desc / e_dma_start / e_dma_wait). ---

// DMASetDesc charges the CPU cost of building a descriptor in memory and
// returns it. Benchmarks that reuse descriptors call this once.
func (c *Core) DMASetDesc(d *dma.Desc) *dma.Desc {
	c.Proc().Wait(noc.DMADescriptorBuildCost)
	return d
}

// DMAStart charges e_dma_start's cost and launches the descriptor chain
// on the given channel.
func (c *Core) DMAStart(ch dma.Chan, d *dma.Desc) {
	c.Proc().Wait(noc.DMAStartCost)
	c.dma.Start(ch, d)
}

// DMAWait blocks until the channel's chain completes (e_dma_wait).
func (c *Core) DMAWait(ch dma.Chan) {
	p := c.Proc()
	start := p.Now()
	c.dma.Wait(p, ch)
	if r := c.chip.fab.Rec; r != nil && p.Now() > start {
		r.CoreSpan(c.idx, noc.ActDMAWait, start, p.Now())
	}
}

// ComputeTime returns the core's accumulated modelled compute time (the
// sum of its Compute calls since the board was built or reset). A
// Timeline's per-core compute spans carry the same time span by span.
func (c *Core) ComputeTime() sim.Time { return c.computeTime }

// --- Event timers (e_ctimer_*). ---

// CtimerStart starts event timer i (0 or 1) counting.
func (c *Core) CtimerStart(i int) {
	c.timers[i] = c.Now()
}

// CtimerElapsed returns the virtual time since timer i started.
func (c *Core) CtimerElapsed(i int) sim.Time {
	return c.Now() - c.timers[i]
}

// CtimerElapsedCycles returns elapsed core clock cycles, as the paper's
// benchmarks report.
func (c *Core) CtimerElapsedCycles(i int) float64 {
	return c.CtimerElapsed(i).CoreCycles()
}
