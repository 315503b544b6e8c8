// Package host models the Zynq's ARM Cortex-A9 side of the system: the
// program-structure steps of the paper's §III (create workgroup, load the
// device image, start the cores, exchange data through core memory or
// shared DRAM, collect results).
//
// The host reaches core SRAM through the same eLink the cores use for
// off-chip traffic, at the observed effective rate; it reaches the shared
// DRAM window directly through the Zynq memory controller, much faster.
package host

import (
	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// Transfer-rate constants for host-side data movement.
const (
	// DownBytePeriod: host writes into core SRAM via the eLink write
	// channel (e_write): 150 MB/s effective.
	DownBytePeriod = noc.HostBytePeriod
	// UpBytePeriod: host reads core SRAM back (e_read): same effective rate.
	UpBytePeriod = noc.HostBytePeriod
	// DRAMBytePeriod: host access to the shared window is a plain ARM
	// memcpy into its own DRAM: ~1 GB/s (3 units per byte).
	DRAMBytePeriod sim.Time = 3
	// LoadImageOverhead: fixed per-core cost of resetting an eCore and
	// starting its program, on top of moving the image bytes.
	LoadImageOverhead = 50 * sim.Microsecond
)

// Host is the ARM-side controller.
type Host struct {
	chip *ecore.Chip
	down *sim.Resource // host -> chip eLink direction
	up   *sim.Resource // chip -> host eLink direction
}

// New creates a host attached to the chip.
func New(chip *ecore.Chip) *Host {
	return &Host{
		chip: chip,
		down: sim.NewResource("elink-host-down"),
		up:   sim.NewResource("elink-host-up"),
	}
}

// Chip returns the attached device.
func (h *Host) Chip() *ecore.Chip { return h.chip }

// Reset frees both host-side eLink directions and clears their
// statistics, matching a just-built host.
func (h *Host) Reset() {
	h.down.Reset()
	h.up.Reset()
}

// Spawn starts the host program as a simulation process.
func (h *Host) Spawn(name string, fn func(hp *Proc)) *sim.Proc {
	return h.chip.Engine().Spawn(name, func(p *sim.Proc) {
		fn(&Proc{h: h, p: p})
	})
}

// Proc is the host program's execution context.
type Proc struct {
	h *Host
	p *sim.Proc
}

// Sim returns the underlying simulation process.
func (hp *Proc) Sim() *sim.Proc { return hp.p }

// Now returns the host's virtual time.
func (hp *Proc) Now() sim.Time { return hp.p.Now() }

// Chip returns the device.
func (hp *Proc) Chip() *ecore.Chip { return hp.h.chip }

// WriteCore copies data into core's SRAM at off through the eLink
// (e_write), blocking for the transfer time.
func (hp *Proc) WriteCore(core int, off mem.Addr, data []byte) {
	_, end := hp.h.down.Use(hp.p.Now(), sim.Time(len(data))*DownBytePeriod)
	hp.p.WaitUntil(end)
	fab := hp.h.chip.Fabric()
	fab.SRAMs[core].Write(off, data)
	fab.Notify(core)
}

// ReadCore copies n bytes out of core's SRAM at off (e_read).
func (hp *Proc) ReadCore(core int, off mem.Addr, n int) []byte {
	_, end := hp.h.up.Use(hp.p.Now(), sim.Time(n)*UpBytePeriod)
	hp.p.WaitUntil(end)
	out := make([]byte, n)
	hp.h.chip.Fabric().SRAMs[core].Read(off, out)
	return out
}

// WriteCoreF32 writes a float slice into core SRAM, as WriteCore does
// with the values' little-endian bytes, encoded straight into the
// scratchpad.
func (hp *Proc) WriteCoreF32(core int, off mem.Addr, vals []float32) {
	_, end := hp.h.down.Use(hp.p.Now(), sim.Time(4*len(vals))*DownBytePeriod)
	hp.p.WaitUntil(end)
	fab := hp.h.chip.Fabric()
	fab.SRAMs[core].StoreF32s(off, vals)
	fab.Notify(core)
}

// ReadCoreF32 reads len(dst) floats from core SRAM into dst, as
// ReadCore does, so a host gathering many cores' blocks can reuse one
// buffer.
func (hp *Proc) ReadCoreF32(core int, off mem.Addr, dst []float32) {
	_, end := hp.h.up.Use(hp.p.Now(), sim.Time(4*len(dst))*UpBytePeriod)
	hp.p.WaitUntil(end)
	hp.h.chip.Fabric().SRAMs[core].LoadF32s(off, dst)
}

// WriteDRAM stages data into the shared window at off.
func (hp *Proc) WriteDRAM(off mem.Addr, data []byte) {
	hp.p.Wait(sim.Time(len(data)) * DRAMBytePeriod)
	hp.h.chip.DRAM().Write(off, data)
}

// ReadDRAM reads n bytes from the shared window.
func (hp *Proc) ReadDRAM(off mem.Addr, n int) []byte {
	hp.p.Wait(sim.Time(n) * DRAMBytePeriod)
	out := make([]byte, n)
	hp.h.chip.DRAM().Read(off, out)
	return out
}

// WriteDRAMF32 stages floats into shared memory.
func (hp *Proc) WriteDRAMF32(off mem.Addr, vals []float32) {
	hp.p.Wait(sim.Time(4*len(vals)) * DRAMBytePeriod)
	hp.h.chip.DRAM().StoreF32s(off, vals)
}

// ReadDRAMF32 reads n floats from shared memory.
func (hp *Proc) ReadDRAMF32(off mem.Addr, n int) []float32 {
	hp.p.Wait(sim.Time(4*n) * DRAMBytePeriod)
	out := make([]float32, n)
	hp.h.chip.DRAM().LoadF32s(off, out)
	return out
}

// LoadImage models resetting n cores and loading a device executable
// of imageBytes onto each of them (§III steps 1-2).
func (hp *Proc) LoadImage(n, imageBytes int) {
	for range n {
		_, end := hp.h.down.Use(hp.p.Now(), sim.Time(imageBytes)*DownBytePeriod)
		hp.p.WaitUntil(end)
		hp.p.Wait(LoadImageOverhead)
	}
}

// Join blocks until all the given device processes have finished
// (§III step 5: "once the execution is complete, the host is signalled").
func (hp *Proc) Join(procs []*sim.Proc) {
	for _, p := range procs {
		hp.p.Join(p)
	}
}
