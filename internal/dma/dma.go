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
	// is untouched. Implementations must be concurrency-safe.
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

// ELinkReadTime books n bytes on the read direction of the off-chip link
// starting at t and returns the completion time. On a sharded board it
// must run in the sys shard's execution context (the read link and its
// byte counter live there).
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
// always executes in e.sh's (the issuing core's shard's) context; on a
// sharded board the legs that touch other shards' state - the eLink
// arbiter and DRAM on the sys shard, a destination core's SRAM on
// another chip - are carried out there via events, and the chain
// continuation returns here the same way.
func (e *Engine) run(ch *channel, d *Desc, t sim.Time) {
	if d == nil {
		e.sh.At(t, func() {
			ch.active = false
			ch.done.Broadcast()
		})
		return
	}
	d.validate()
	n := d.Bytes()
	pace := noc.DMASerialization(n, d.Beat)
	src := e.fab.Map.Decode(e.core, d.Src)
	dst := e.fab.Map.Decode(e.core, d.Dst)
	if src.Kind == mem.KindInvalid || dst.Kind == mem.KindInvalid {
		panic(fmt.Sprintf("dma: core %d transfer with unmapped address (src %#x dst %#x)", e.core, d.Src, d.Dst))
	}
	sharded := e.fab.ShardOf != nil
	if sharded && src.Kind == mem.KindCore && e.fab.Mesh.CrossShard(src.Core, e.core) {
		panic(fmt.Sprintf("dma: core %d pull from remote chip core %d is not supported on a sharded board", e.core, src.Core))
	}

	// finish completes a leg whose copy happens on this shard. When a
	// chained descriptor follows, the completion event may book mesh
	// links for the next leg, so it is scheduled booking-gated (see
	// sim.Shard.AtBooking).
	finish := func(done sim.Time) {
		schedule := e.sh.At
		if d.Chain != nil {
			schedule = e.sh.AtBooking
		}
		schedule(done, func() {
			e.copyDesc(d, src, dst)
			ch.moved += uint64(n)
			if dst.Kind != mem.KindDRAM && e.fab.Notify != nil {
				e.fab.Notify(dst.Core)
			}
			e.run(ch, d.Chain, done)
		})
	}

	switch {
	case dst.Kind == mem.KindDRAM && src.Kind == mem.KindDRAM:
		panic("dma: DRAM-to-DRAM transfers are not supported by the hardware")
	case dst.Kind == mem.KindDRAM:
		// Off-chip write: compete for the eLink, which is the bottleneck;
		// DMA pacing overlaps with it.
		if !sharded {
			e.fab.ELink.WriteFunc(e.core, n, func() {
				end := e.fab.Eng.Now()
				if min := t + pace; end < min {
					end = min
				}
				e.record("dram-write", t, end, n)
				finish(end)
			})
			return
		}
		// Sharded: the completion runs on the sys shard, which performs
		// the copy there (sys may read any core's SRAM, and DRAM writes
		// must happen on sys) and hands the chain back to this shard.
		sys := e.fab.Eng.Sys()
		e.fab.ELink.SubmitFrom(e.sh, t, e.core, n, func() {
			end := sys.Now()
			if min := t + pace; end < min {
				end = min
			}
			e.record("dram-write", t, end, n)
			sys.At(end, func() {
				e.copyDesc(d, src, dst)
				e.sendChain(sys, d.Chain, end, func() {
					ch.moved += uint64(n)
					e.run(ch, d.Chain, end)
				})
			})
		})
	case src.Kind == mem.KindDRAM:
		// Off-chip read: the read direction of the link, then the mesh.
		if !sharded {
			end := e.fab.ELinkReadTime(t, n)
			arrive := e.fab.Mesh.Deliver(end, e.linkCorner(), dst.Core, n)
			if min := t + pace; arrive < min {
				arrive = min
			}
			e.record("dram-read", t, arrive, n)
			finish(arrive)
			return
		}
		e.runDRAMRead(ch, d, t, src, dst, n, pace)
	default:
		// On-chip: pace at the DMA rate, book the mesh path.
		if e.fab.Mesh.CrossShard(src.Core, dst.Core) {
			e.runCrossPush(ch, d, t, src, dst, n, pace)
			return
		}
		arrive := e.fab.Mesh.Deliver(t, src.Core, dst.Core, n)
		if min := t + pace; arrive < min {
			arrive = min
		}
		e.record("mesh", t, arrive, n)
		finish(arrive)
	}
}

// record reports one transfer leg to the attached timeline recorder, if
// any. Safe from any shard context (recorders are concurrency-safe).
func (e *Engine) record(kind string, start, end sim.Time, n int) {
	if r := e.fab.Rec; r != nil {
		r.DMATransfer(e.core, kind, start, end, n)
	}
}

// sendChain posts a chain continuation from the sys shard back to the
// issuing shard. When another descriptor follows, the continuation may
// book mesh link occupancy for the next leg, so it is posted
// booking-gated (see sim.Shard.SendBooking); a chain-terminating
// completion books nothing and is posted plain.
func (e *Engine) sendChain(sys *sim.Shard, chain *Desc, t sim.Time, fn func()) {
	if chain != nil {
		sys.SendBooking(e.sh, t, fn)
		return
	}
	sys.Send(e.sh, t, fn)
}

// runCrossPush handles a core-to-core transfer whose destination lives
// on another chip's shard. The mesh walk and the functional copy run on
// the sys shard - the walk synchronously at issue time, the copy at
// arrival, exactly as the unsharded engine does them (sys rounds are
// mutually exclusive with every chip round, so sys may read the source
// SRAM and write the destination SRAM race-free) - and the arrival
// notification and chain continuation are posted on to the destination
// and issuing shards at the arrival time.
func (e *Engine) runCrossPush(ch *channel, d *Desc, t sim.Time, src, dst mem.Target, n int, pace sim.Time) {
	sys := e.fab.Eng.Sys()
	dstSh := e.fab.CoreShard(dst.Core)
	e.sh.SendTagged(sys, t, e.core, func() {
		arrive := e.fab.Mesh.DeliverSys(t, src.Core, dst.Core, n)
		if min := t + pace; arrive < min {
			arrive = min
		}
		e.record("mesh-x", t, arrive, n)
		sys.At(arrive, func() {
			e.copyDesc(d, src, dst)
			sys.Send(dstSh, arrive, func() {
				if e.fab.Notify != nil {
					e.fab.Notify(dst.Core)
				}
			})
			e.sendChain(sys, d.Chain, arrive, func() {
				ch.moved += uint64(n)
				e.run(ch, d.Chain, arrive)
			})
		})
	})
}

// runDRAMRead handles an off-chip read on a sharded board. Everything
// the unsharded engine did inline - booking the read link, walking the
// mesh from the link corner, copying DRAM to the destination SRAM at
// arrival - runs on the sys shard at the same virtual times; only the
// arrival notification and the chain continuation are posted to the
// destination and issuing shards.
func (e *Engine) runDRAMRead(ch *channel, d *Desc, t sim.Time, src, dst mem.Target, n int, pace sim.Time) {
	sys := e.fab.Eng.Sys()
	corner := e.linkCorner()
	dstSh := e.fab.CoreShard(dst.Core)
	e.sh.SendTagged(sys, t, e.core, func() {
		end := e.fab.ELinkReadTime(t, n)
		arrive := e.fab.Mesh.DeliverSys(end, corner, dst.Core, n)
		if min := t + pace; arrive < min {
			arrive = min
		}
		e.record("dram-read", t, arrive, n)
		sys.At(arrive, func() {
			e.copyDesc(d, src, dst)
			sys.Send(dstSh, arrive, func() {
				if e.fab.Notify != nil {
					e.fab.Notify(dst.Core)
				}
			})
			e.sendChain(sys, d.Chain, arrive, func() {
				ch.moved += uint64(n)
				e.run(ch, d.Chain, arrive)
			})
		})
	})
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
		e.fab.DRAM.Write(do, e.fab.SRAMs[src.Core].Bytes(so, n))
	case src.Kind == mem.KindDRAM:
		e.fab.DRAM.Read(so, e.fab.SRAMs[dst.Core].Bytes(do, n))
	default:
		copy(e.fab.SRAMs[dst.Core].Bytes(do, n), e.fab.SRAMs[src.Core].Bytes(so, n))
	}
}

// copyDesc performs the functional data movement for one descriptor.
// On a sharded board it runs either in the shard owning both endpoints
// or on the sys shard (which may touch any memory: its rounds are
// mutually exclusive with every chip round).
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
