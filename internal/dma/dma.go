// Package dma models the per-eCore DMA engines: two channels per core,
// descriptor-driven 1D/2D transfers with independent source/destination
// strides, word or doubleword beats, and descriptor chaining - the
// feature set the paper's Listing 2 exercises for the stencil boundary
// exchange and §VII uses for matrix rotation.
//
// A transfer is simulated in two aspects: functionally (bytes really move
// between the simulated SRAMs/DRAM, at completion time) and temporally
// (the engine paces at the calibrated 2 GB/s doubleword rate, books
// occupancy on the mesh links it crosses, and competes through the eLink
// arbiter for off-chip destinations).
package dma

import (
	"fmt"

	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// Fabric bundles the chip-level facilities a DMA engine needs. The ecore
// package constructs one per chip and shares it among all engines.
//
// Fabric is also where the board's one routing rule lives: a transfer
// leg that touches the eLink, DRAM or another chip runs on the sys
// shard (which owns the eLink arbiter, DRAM and every cross-chip mesh
// walk), and every other leg runs on the issuing chip's shard. A
// hand-off to the shard the code already runs on happens inline, so an
// unsharded board, where every shard is sys, runs the same code with no
// hand-offs at all. Write and WriteDRAM are the entry points for the
// ecore package's stores; the DMA engine applies the rule in run.
type Fabric struct {
	Eng       *sim.Engine
	Map       *mem.Map
	Mesh      *noc.Mesh
	ELink     *noc.ELink
	ELinkRead *sim.Resource // read direction of the off-chip link
	SRAMs     []*mem.SRAM
	DRAM      *mem.DRAM
	// Notify, when non-nil, is invoked whenever a transfer deposits data
	// into a core's SRAM, so pollers of that memory can be re-evaluated.
	// It runs in the execution context of the shard owning that core.
	Notify func(core int)
	// ShardOf maps core index -> owning shard on a sharded multi-chip
	// board; nil when the whole board runs on the sys shard.
	ShardOf []*sim.Shard
	// Rec, when non-nil, observes core activity and DMA transfers for
	// timeline export. Attached per run (trace.Timeline.Attach), cleared
	// by Reset; every use sits behind a nil check so the unmetered path
	// is untouched.
	Rec noc.Recorder
	// readBytes counts the bytes booked on the read direction of the
	// off-chip link - counted here, at the single booking site, rather
	// than inferred from the resource's busy time, so the energy term
	// stays correct if the read link's timing model ever changes.
	readBytes uint64
}

// CoreShard returns the shard owning core (the sys shard when the board
// is unsharded).
func (f *Fabric) CoreShard(core int) *sim.Shard {
	if f.ShardOf == nil {
		return f.Eng.Sys()
	}
	return f.ShardOf[core]
}

// OnSys runs fn on the sys shard on behalf of core, at from's current
// time: inline when from is sys, otherwise posted there with core as
// the arbitration tag, so simultaneous requests from different chips
// are served in core order.
func (f *Fabric) OnSys(from *sim.Shard, core int, fn func()) {
	sys := f.Eng.Sys()
	if from == sys {
		fn()
		return
	}
	from.SendTagged(sys, from.Now(), core, fn)
}

// WriteDRAM books n bytes for core on the eLink, issued from shard
// from at its current time; landed runs on the sys shard when the link
// has carried them, and stores them into DRAM there.
func (f *Fabric) WriteDRAM(from *sim.Shard, core, n int, landed func()) {
	if from == f.Eng.Sys() {
		// Spelled out so the board that never leaves sys allocates no
		// hand-off closure.
		f.ELink.Submit(core, n, landed)
		return
	}
	f.OnSys(from, core, func() { f.ELink.Submit(core, n, landed) })
}

// Wake is the return path of OnSys for a blocked proc: called on the
// sys shard, it broadcasts c on its owning shard at the current time,
// inline when that is sys.
func (f *Fabric) Wake(c *sim.Cond) {
	sys := f.Eng.Sys()
	if c.Shard() == sys {
		c.Broadcast()
		return
	}
	sys.Send(c.Shard(), sys.Now(), c.Broadcast)
}

// Write is the one mesh write: n bytes from core src, issued at from's
// current time on the shard from owning src, arrive at core dst no
// earlier than minT, and deposit then runs on dst's shard. A route
// within one chip is walked here; a cross-chip route is walked on sys.
func (f *Fabric) Write(from *sim.Shard, src, dst, n int, minT sim.Time, deposit func()) {
	t := from.Now()
	if !f.Mesh.CrossChip(src, dst) {
		from.At(max(f.Mesh.Deliver(t, src, dst, n), minT), deposit)
		return
	}
	f.OnSys(from, src, func() {
		arrive := max(f.Mesh.DeliverSys(t, src, dst, n), minT)
		f.Eng.Sys().Send(f.CoreShard(dst), arrive, deposit)
	})
}

// ELinkReadTime books n bytes on the read direction of the off-chip link
// starting at t and returns the completion time. It must run on the sys
// shard (the read link and its byte counter live there).
func (f *Fabric) ELinkReadTime(t sim.Time, n int) sim.Time {
	f.readBytes += uint64(n)
	_, end := f.ELinkRead.Use(t, sim.Time(n)*noc.ELinkBytePeriod)
	return end
}

// ELinkReadBytes returns the bytes carried by the read direction of the
// off-chip link (the energy model's eLink read term).
func (f *Fabric) ELinkReadBytes() uint64 { return f.readBytes }

// Reset returns the shared fabric to its just-built state: mesh links
// and arbiter queues freed, statistics zeroed, every memory zeroed. The
// caller is responsible for the engine and the per-core DMA engines.
func (f *Fabric) Reset() {
	f.Mesh.Reset()
	f.ELink.Reset()
	f.ELinkRead.Reset()
	f.readBytes = 0
	f.Rec = nil
	for _, s := range f.SRAMs {
		s.Reset()
	}
	f.DRAM.Reset()
}

// Desc is a DMA descriptor, mirroring e_dma_set_desc's fields: a 2D
// transfer of OuterCount rows of InnerCount beats each. After every beat
// the addresses advance by the inner strides; after every row they
// advance by the outer strides instead. Addresses are global (local
// aliases allowed on either side). A non-nil Chain continues with the
// next descriptor when this one completes (E_DMA_CHAIN).
type Desc struct {
	Beat           int // 4 (word) or 8 (doubleword)
	InnerCount     int // beats per row
	OuterCount     int // rows (1 for a 1D transfer)
	SrcInnerStride int // bytes added to src after each beat
	DstInnerStride int
	SrcOuterStride int // bytes added after each row, instead of the inner stride
	DstOuterStride int
	Src, Dst       mem.Addr
	Chain          *Desc
}

// Desc1D builds a contiguous transfer of n bytes with the given beat.
func Desc1D(src, dst mem.Addr, n, beat int) *Desc {
	if n%beat != 0 {
		panic(fmt.Sprintf("dma: %d bytes not a multiple of beat %d", n, beat))
	}
	return &Desc{
		Beat: beat, InnerCount: n / beat, OuterCount: 1,
		SrcInnerStride: beat, DstInnerStride: beat,
		Src: src, Dst: dst,
	}
}

// Bytes returns the payload size of the descriptor (without chains).
func (d *Desc) Bytes() int { return d.Beat * d.InnerCount * d.OuterCount }

// TotalBytes returns the payload of the descriptor and all its chains.
func (d *Desc) TotalBytes() int {
	n := 0
	for ; d != nil; d = d.Chain {
		n += d.Bytes()
	}
	return n
}

func (d *Desc) validate() {
	if d.Beat != 4 && d.Beat != 8 {
		panic(fmt.Sprintf("dma: beat %d not 4 or 8", d.Beat))
	}
	if d.InnerCount <= 0 || d.OuterCount <= 0 {
		panic(fmt.Sprintf("dma: non-positive counts %dx%d", d.OuterCount, d.InnerCount))
	}
}

// Chan identifies one of the two DMA channels (E_DMA_0, E_DMA_1).
type Chan int

// The two per-core channels.
const (
	DMA0 Chan = 0
	DMA1 Chan = 1
)

// Engine is one core's DMA controller.
type Engine struct {
	fab  *Fabric
	core int
	sh   *sim.Shard // the shard owning this core
	ch   [2]*channel
}

type channel struct {
	active bool
	done   *sim.Cond
	moved  uint64 // total bytes moved, stats
}

// NewEngine creates the DMA engine for the given core.
func NewEngine(fab *Fabric, core int) *Engine {
	e := &Engine{fab: fab, core: core, sh: fab.CoreShard(core)}
	prefixes := [2]string{"dma0:core", "dma1:core"}
	for i := range e.ch {
		e.ch[i] = &channel{done: sim.NewCondIdxOn(e.sh, prefixes[i], core)}
	}
	return e
}

// Reset clears both channels' transfer state and statistics (the shared
// fabric is reset separately, by its owner).
func (e *Engine) Reset() {
	for _, ch := range e.ch {
		ch.active = false
		ch.moved = 0
	}
}

// Busy reports whether the channel has an active transfer.
func (e *Engine) Busy(c Chan) bool { return e.ch[c].active }

// Moved returns the total bytes the channel has transferred.
func (e *Engine) Moved(c Chan) uint64 { return e.ch[c].moved }

// Start launches desc (and its chain) on channel c at the current engine
// time. The caller is responsible for charging the CPU cost of
// e_dma_set_desc/e_dma_start (noc.DMADescriptorBuildCost, DMAStartCost);
// Start itself is the hardware side. Starting a busy channel panics, as
// it is a programming error on the real device too.
func (e *Engine) Start(c Chan, desc *Desc) {
	ch := e.ch[c]
	if ch.active {
		panic(fmt.Sprintf("dma: core %d channel %d started while busy", e.core, c))
	}
	ch.active = true
	e.run(ch, desc, e.sh.Now())
}

// run processes one descriptor starting at time t, then chains. It
// executes on e.sh, the issuing core's shard, and applies the Fabric's
// routing rule: a leg between two cores of the issuing chip runs here,
// and any other leg - one that touches the eLink, DRAM or another chip,
// pushes and pulls alike - runs on the sys shard (sysLeg). Either way
// the leg completes with land.
func (e *Engine) run(ch *channel, d *Desc, t sim.Time) {
	if d == nil {
		e.sh.At(t, func() {
			ch.active = false
			ch.done.Broadcast()
		})
		return
	}
	d.validate()
	src := e.fab.Map.Decode(e.core, d.Src)
	dst := e.fab.Map.Decode(e.core, d.Dst)
	if src.Kind == mem.KindInvalid || dst.Kind == mem.KindInvalid {
		panic(fmt.Sprintf("dma: core %d transfer with unmapped address (src %#x dst %#x)", e.core, d.Src, d.Dst))
	}
	if src.Kind == mem.KindDRAM && dst.Kind == mem.KindDRAM {
		panic("dma: DRAM-to-DRAM transfers are not supported by the hardware")
	}
	mesh := e.fab.Mesh
	if src.Kind == mem.KindDRAM || dst.Kind == mem.KindDRAM ||
		mesh.CrossChip(e.core, src.Core) || mesh.CrossChip(e.core, dst.Core) {
		// Inline when this shard is sys; a per-leg closure only when
		// the leg really changes shard.
		if sys := e.fab.Eng.Sys(); e.sh != sys {
			e.sh.SendTagged(sys, t, e.core, func() { e.sysLeg(ch, d, t, src, dst) })
		} else {
			e.sysLeg(ch, d, t, src, dst)
		}
		return
	}
	// On-chip: pace at the DMA rate, book the mesh path.
	n := d.Bytes()
	arrive := max(mesh.Deliver(t, src.Core, dst.Core, n), t+noc.DMASerialization(n, d.Beat))
	e.record("mesh", t, arrive, n)
	e.land(e.sh, ch, d, src, dst, arrive)
}

// sysLeg carries out, on the sys shard, a leg issued at t that touches
// the eLink, DRAM or another chip: the eLink arbitration, the read-link
// booking and the mesh walk all happen here at the times the issuing
// shard would have used, and the leg lands on sys. DMA pacing overlaps
// with all of them: a leg never completes before its serialization.
func (e *Engine) sysLeg(ch *channel, d *Desc, t sim.Time, src, dst mem.Target) {
	sys := e.fab.Eng.Sys()
	n := d.Bytes()
	paced := t + noc.DMASerialization(n, d.Beat)
	switch {
	case dst.Kind == mem.KindDRAM:
		// Off-chip write: compete for the eLink, which is the bottleneck.
		e.fab.ELink.Submit(e.core, n, func() {
			end := max(sys.Now(), paced)
			e.record("dram-write", t, end, n)
			e.land(sys, ch, d, src, dst, end)
		})
	case src.Kind == mem.KindDRAM:
		// Off-chip read: the read direction of the link, then the mesh
		// from the link corner.
		end := e.fab.ELinkReadTime(t, n)
		arrive := max(e.fab.Mesh.DeliverSys(end, e.linkCorner(), dst.Core, n), paced)
		e.record("dram-read", t, arrive, n)
		e.land(sys, ch, d, src, dst, arrive)
	default:
		kind := "mesh"
		if e.fab.Mesh.CrossChip(src.Core, dst.Core) {
			kind = "mesh-x"
		}
		arrive := max(e.fab.Mesh.DeliverSys(t, src.Core, dst.Core, n), paced)
		e.record(kind, t, arrive, n)
		e.land(sys, ch, d, src, dst, arrive)
	}
}

// land completes a leg at time t on shard on, where the leg ran: the
// functional copy (on may touch both memories: a chip shard owns both
// endpoints of its on-chip legs, and the engine runs one event at a
// time, so a sys leg may copy between chips), then the destination's
// arrival notification and the chain continuation, each handed to its
// own shard - inline when that is on.
func (e *Engine) land(on *sim.Shard, ch *channel, d *Desc, src, dst mem.Target, t sim.Time) {
	on.At(t, func() {
		e.copyDesc(d, src, dst)
		if dst.Kind != mem.KindDRAM && e.fab.Notify != nil {
			if sh := e.fab.CoreShard(dst.Core); sh == on {
				e.fab.Notify(dst.Core)
			} else {
				on.Send(sh, t, func() { e.fab.Notify(dst.Core) })
			}
		}
		if on == e.sh {
			e.chain(ch, d, t)
		} else {
			on.Send(e.sh, t, func() { e.chain(ch, d, t) })
		}
	})
}

// chain accounts a landed descriptor and continues with the next one.
func (e *Engine) chain(ch *channel, d *Desc, t sim.Time) {
	ch.moved += uint64(d.Bytes())
	e.run(ch, d.Chain, t)
}

// record reports one transfer leg to the attached timeline recorder, if
// any. Safe from any shard context.
func (e *Engine) record(kind string, start, end sim.Time, n int) {
	if r := e.fab.Rec; r != nil {
		r.DMATransfer(e.core, kind, start, end, n)
	}
}

// linkCorner returns the core index adjacent to the off-chip link (row 0,
// last column), where off-chip reads enter the mesh.
func (e *Engine) linkCorner() int { return e.fab.Map.CoreIndex(0, e.fab.Map.Cols-1) }

// Wait blocks p until channel c's transfer chain completes (e_dma_wait).
func (e *Engine) Wait(p *sim.Proc, c Chan) {
	ch := e.ch[c]
	p.WaitFor(ch.done, func() bool { return !ch.active })
}

// read/write helpers for the functional copy.

func (e *Engine) readBeat(t mem.Target, off mem.Addr, beat int) uint64 {
	switch t.Kind {
	case mem.KindDRAM:
		if beat == 8 {
			lo := uint64(e.fab.DRAM.Load32(off))
			hi := uint64(e.fab.DRAM.Load32(off + 4))
			return lo | hi<<32
		}
		return uint64(e.fab.DRAM.Load32(off))
	default:
		s := e.fab.SRAMs[t.Core]
		if beat == 8 {
			return s.Load64(off)
		}
		return uint64(s.Load32(off))
	}
}

func (e *Engine) writeBeat(t mem.Target, off mem.Addr, beat int, v uint64) {
	switch t.Kind {
	case mem.KindDRAM:
		e.fab.DRAM.Store32(off, uint32(v))
		if beat == 8 {
			e.fab.DRAM.Store32(off+4, uint32(v>>32))
		}
	default:
		s := e.fab.SRAMs[t.Core]
		if beat == 8 {
			s.Store64(off, v)
		} else {
			s.Store32(off, uint32(v))
		}
	}
}

// copyRange moves n contiguous bytes from src's memory at so to dst's
// at do, charging the byte counters as the beats covering them would.
// DRAM is reached by copying through its Read/Write accessors; the
// caller has already refused DRAM-to-DRAM transfers.
func (e *Engine) copyRange(dst mem.Target, do mem.Addr, src mem.Target, so mem.Addr, n int) {
	switch {
	case dst.Kind == mem.KindDRAM:
		e.fab.DRAM.Write(do, e.fab.SRAMs[src.Core].View(so, n))
	case src.Kind == mem.KindDRAM:
		e.fab.DRAM.Read(so, e.fab.SRAMs[dst.Core].Bytes(do, n))
	default:
		copy(e.fab.SRAMs[dst.Core].Bytes(do, n), e.fab.SRAMs[src.Core].View(so, n))
	}
}

// copyDesc performs the functional data movement for one descriptor.
// It runs either in the shard owning both endpoints or on the sys shard,
// which may touch any memory.
//
// A row whose beats are contiguous on both sides moves as one range,
// charging the byte counters exactly as its beats do. The exception is
// a row copied forward onto itself within one memory - the destination
// starting inside the source range - where each beat reads bytes an
// earlier beat wrote; that row keeps beat order, which a memmove would
// not reproduce.
func (e *Engine) copyDesc(d *Desc, src, dst mem.Target) {
	n := d.Beat * d.InnerCount
	contiguous := d.SrcInnerStride == d.Beat && d.DstInnerStride == d.Beat
	sameMem := src.Kind == dst.Kind && src.Core == dst.Core
	so, do := src.Off, dst.Off
	for row := 0; row < d.OuterCount; row++ {
		if contiguous && !(sameMem && so < do && do < so+mem.Addr(n)) {
			e.copyRange(dst, do, src, so, n)
		} else {
			rs, rd := so, do
			for i := 0; i < d.InnerCount; i++ {
				e.writeBeat(dst, rd, d.Beat, e.readBeat(src, rs, d.Beat))
				rs += mem.Addr(d.SrcInnerStride)
				rd += mem.Addr(d.DstInnerStride)
			}
		}
		// The outer stride replaces the inner one after a row's last beat.
		so += mem.Addr((d.InnerCount-1)*d.SrcInnerStride + d.SrcOuterStride)
		do += mem.Addr((d.InnerCount-1)*d.DstInnerStride + d.DstOuterStride)
	}
}
