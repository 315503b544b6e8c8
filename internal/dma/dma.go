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
//
// The package also owns the other inter-core primitive, the posted
// remote write of §V-A: Fabric.Post is the one posted write, to another
// core's SRAM or to shared DRAM, behind the ecore package's
// StoreGlobal32 and CopyWordsTo.
//
// Neither primitive allocates per event on a warm board: a channel
// keeps its leg in flight and schedules handlers bound once, and posted
// writes are recycled records.
package dma

import (
	"fmt"
	"slices"

	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// Fabric bundles the board-level facilities a DMA engine needs. The
// ecore package constructs one per board and shares it among all
// engines. Its memories, the per-core scratchpads and the DRAM window,
// are one type; a decoded address resolves to its memory in one place
// (memory), and only the timing of the path to it, mesh or eLink,
// depends on its kind. Post, with PostFrom its form that reads the
// bytes from a scratchpad, is the one posted write, the entry point for
// the ecore package's remote stores.
type Fabric struct {
	Eng       *sim.Engine
	Map       *mem.Map
	Mesh      *noc.Mesh
	ELink     *noc.ELink
	ELinkRead *sim.Resource // read direction of the off-chip link
	SRAMs     []*mem.Memory
	DRAM      *mem.Memory
	// Notify, when non-nil, is invoked whenever a transfer deposits data
	// into a core's SRAM, so pollers of that memory can be re-evaluated.
	Notify func(core int)
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
	// posts holds landed posted writes for reuse (Post).
	posts []*post
}

// post is one posted write in flight: the bytes as they were at issue
// and where they land. land, bound once when the record is made, is
// the event or eLink callback that deposits them.
type post struct {
	fab  *Fabric
	dst  mem.Target
	data []byte
	land func()
}

// Post is the one posted write: data from core src, issued now, lands
// at dst, a core's SRAM (KindCore) or shared DRAM (KindDRAM). The bytes
// are copied at issue, so the caller may overwrite its source at once.
// A core write crosses the mesh and lands no earlier than minT, booking
// the chip-to-chip eLinks on a route that crosses chips; a DRAM write
// competes for the off-chip link and lands when it completes, whatever
// minT. Records are recycled once they land, so a warm fabric posts
// without allocating.
func (f *Fabric) Post(src int, dst mem.Target, data []byte, minT sim.Time) {
	p := f.newPost(dst, len(data))
	copy(p.data, data)
	f.send(src, p, minT)
}

// PostFrom is Post with the n bytes read from core src's scratchpad at
// off, charged as a load of n bytes, straight into the posted record.
func (f *Fabric) PostFrom(src int, dst mem.Target, off mem.Addr, n int, minT sim.Time) {
	p := f.newPost(dst, n)
	f.SRAMs[src].Read(off, p.data)
	f.send(src, p, minT)
}

// newPost returns a posted-write record for n bytes landing at dst,
// recycled when one has landed.
func (f *Fabric) newPost(dst mem.Target, n int) *post {
	var p *post
	if k := len(f.posts); k > 0 {
		p = f.posts[k-1]
		f.posts = f.posts[:k-1]
	} else {
		p = &post{fab: f}
		p.land = p.deposit
	}
	p.dst = dst
	p.data = slices.Grow(p.data[:0], n)[:n]
	return p
}

// send puts p on its way from core src: over the off-chip link to DRAM,
// or across the mesh to a core, landing no earlier than minT.
func (f *Fabric) send(src int, p *post, minT sim.Time) {
	if p.dst.Kind == mem.KindDRAM {
		f.ELink.Submit(src, len(p.data), p.land)
	} else {
		f.Eng.At(max(f.Mesh.Deliver(f.Eng.Now(), src, p.dst.Core, len(p.data)), minT), p.land)
	}
}

// deposit lands a posted write: the bytes are stored, a core
// destination's pollers are notified, and the record is recycled.
func (p *post) deposit() {
	f := p.fab
	f.memory(p.dst).Write(p.dst.Off, p.data)
	if p.dst.Kind != mem.KindDRAM && f.Notify != nil {
		f.Notify(p.dst.Core)
	}
	f.posts = append(f.posts, p)
}

// memory resolves a decoded target to the memory it names: the shared
// window, or the scratchpad of the core it names.
func (f *Fabric) memory(t mem.Target) *mem.Memory {
	if t.Kind == mem.KindDRAM {
		return f.DRAM
	}
	return f.SRAMs[t.Core]
}

// ELinkReadTime books n bytes on the read direction of the off-chip link
// starting at t and returns the completion time.
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
	d := new(Desc)
	d.Set1D(src, dst, n, beat)
	return d
}

// Set1D makes d a contiguous transfer of n bytes with the given beat and
// no chain, the way SDK code rewrites one descriptor between transfers.
func (d *Desc) Set1D(src, dst mem.Addr, n, beat int) {
	if n%beat != 0 {
		panic(fmt.Sprintf("dma: %d bytes not a multiple of beat %d", n, beat))
	}
	*d = Desc{
		Beat: beat, InnerCount: n / beat, OuterCount: 1,
		SrcInnerStride: beat, DstInnerStride: beat,
		Src: src, Dst: dst,
	}
}

// Bytes returns the payload size of the descriptor (without chains).
func (d *Desc) Bytes() int { return d.Beat * d.InnerCount * d.OuterCount }

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
	ch   [2]*channel
}

// channel is one DMA channel. It runs one leg - one descriptor of a
// chain - at a time, so the leg in flight lives in the channel, and the
// handlers its events run are bound once, in NewEngine: a warm channel
// schedules without allocating.
type channel struct {
	eng    *Engine
	active bool
	done   *sim.Cond

	// The leg in flight: its descriptor, decoded ends and byte count,
	// the time it started, the time its pacing allows it to finish, and
	// the time it lands.
	d        *Desc
	src, dst mem.Target
	n        int
	start    sim.Time
	paced    sim.Time
	at       sim.Time

	// Bound handlers: land completes the leg at at, finish ends the
	// chain, and dramWritten is the eLink completion of a DRAM write.
	land, finish, dramWritten func()
}

// NewEngine creates the DMA engine for the given core.
func NewEngine(fab *Fabric, core int) *Engine {
	e := &Engine{fab: fab, core: core}
	prefixes := [2]string{"dma0:core", "dma1:core"}
	for i := range e.ch {
		ch := &channel{eng: e, done: sim.NewCondIdx(fab.Eng, prefixes[i], core)}
		ch.land, ch.finish, ch.dramWritten = ch.landLeg, ch.finishChain, ch.dramWriteDone
		e.ch[i] = ch
	}
	return e
}

// Reset clears both channels' transfer state (the shared fabric is
// reset separately, by its owner).
func (e *Engine) Reset() {
	for _, ch := range e.ch {
		ch.active = false
		ch.d = nil
	}
}

// Busy reports whether the channel has an active transfer.
func (e *Engine) Busy(c Chan) bool { return e.ch[c].active }

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
	e.run(ch, desc, e.fab.Eng.Now())
}

// run processes one descriptor starting at time t, then chains. DMA
// pacing overlaps with every leg: a leg never completes before its
// serialization.
func (e *Engine) run(ch *channel, d *Desc, t sim.Time) {
	eng := e.fab.Eng
	if d == nil {
		eng.At(t, ch.finish)
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
	n := d.Bytes()
	ch.d, ch.src, ch.dst, ch.n, ch.start = d, src, dst, n, t
	ch.paced = t + noc.DMASerialization(n, d.Beat)
	switch {
	case dst.Kind == mem.KindDRAM:
		// Off-chip write: compete for the eLink, which is the bottleneck.
		e.fab.ELink.Submit(e.core, n, ch.dramWritten)
	case src.Kind == mem.KindDRAM:
		// Off-chip read: the read direction of the link, then the mesh
		// from the link corner.
		end := e.fab.ELinkReadTime(t, n)
		arrive := max(mesh.Deliver(end, e.linkCorner(), dst.Core, n), ch.paced)
		e.record("dram-read", t, arrive, n)
		e.land(ch, arrive)
	default:
		kind := "mesh"
		if mesh.CrossChip(src.Core, dst.Core) {
			kind = "mesh-x"
		}
		arrive := max(mesh.Deliver(t, src.Core, dst.Core, n), ch.paced)
		e.record(kind, t, arrive, n)
		e.land(ch, arrive)
	}
}

// land schedules the channel's leg to complete at time t.
func (e *Engine) land(ch *channel, t sim.Time) {
	ch.at = t
	e.fab.Eng.At(t, ch.land)
}

// dramWriteDone runs when the eLink has carried a DRAM write leg: the
// leg lands once its pacing allows.
func (ch *channel) dramWriteDone() {
	e := ch.eng
	end := max(e.fab.Eng.Now(), ch.paced)
	e.record("dram-write", ch.start, end, ch.n)
	e.land(ch, end)
}

// landLeg completes the leg in flight: the functional copy, the
// destination's arrival notification, then the chain continuation.
func (ch *channel) landLeg() {
	e := ch.eng
	e.copyDesc(ch.d, ch.src, ch.dst)
	if ch.dst.Kind != mem.KindDRAM && e.fab.Notify != nil {
		e.fab.Notify(ch.dst.Core)
	}
	e.run(ch, ch.d.Chain, ch.at)
}

// finishChain ends the channel's chain and wakes its waiters.
func (ch *channel) finishChain() {
	ch.active = false
	ch.d = nil
	ch.done.Broadcast()
}

// record reports one transfer leg to the attached timeline recorder, if
// any.
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

// readBeat and writeBeat move one beat of a transfer, a word or a
// doubleword, at off in t's memory.

func (e *Engine) readBeat(t mem.Target, off mem.Addr, beat int) uint64 {
	m := e.fab.memory(t)
	if beat == 8 {
		return m.Load64(off)
	}
	return uint64(m.Load32(off))
}

func (e *Engine) writeBeat(t mem.Target, off mem.Addr, beat int, v uint64) {
	m := e.fab.memory(t)
	if beat == 8 {
		m.Store64(off, v)
	} else {
		m.Store32(off, uint32(v))
	}
}

// copyDesc performs the functional data movement for one descriptor.
//
// A row whose beats are contiguous on both sides moves as one range
// (mem.Copy, block by block with no staging copy), charging the byte
// counters exactly as its beats do. The exception is a row copied
// forward onto itself within one memory - the destination starting
// inside the source range - where each beat reads bytes an earlier beat
// wrote; that row keeps beat order, which a memmove would not
// reproduce. A core's local alias and its global window name one
// memory, so the two ends are compared as memories, not as targets.
func (e *Engine) copyDesc(d *Desc, src, dst mem.Target) {
	n := d.Beat * d.InnerCount
	contiguous := d.SrcInnerStride == d.Beat && d.DstInnerStride == d.Beat
	sm, dm := e.fab.memory(src), e.fab.memory(dst)
	so, do := src.Off, dst.Off
	for row := 0; row < d.OuterCount; row++ {
		if contiguous && !(sm == dm && so < do && do < so+mem.Addr(n)) {
			mem.Copy(dm, do, sm, so, n)
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
