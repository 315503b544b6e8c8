// Package sdk layers the Epiphany SDK's coordination primitives over the
// ecore API: workgroups with neighbour arithmetic (e_group_config /
// e_neighbor_id), barriers (e_barrier) built from real flag writes
// through the mesh, and the hardware mutex (e_mutex_*).
package sdk

import (
	"fmt"

	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// Reserved scratchpad region at the top of bank 3 for SDK structures
// (barrier arrival flags and the release word). Kernels that use SDK
// synchronization must keep their layouts clear of it; ReserveSDK does
// this for them.
const (
	// SDKBase is the first byte of the reserved region.
	SDKBase mem.Addr = 0x7E00
	// SDKSize covers the barrier's per-member arrival words and its
	// release word.
	SDKSize = 0x200
	// The barrier's flag words start at SDKBase: slot r holds group
	// member r's arrival counter, and barrierRelease the per-core
	// release counter, at SDKBase+0x100.
	barrierRelease = 0x100 / 4
)

// ReserveSDK marks the SDK region in a core's layout plan.
func ReserveSDK(l *mem.Layout) error {
	_, err := l.PlaceAt("sdk", SDKBase, SDKSize)
	return err
}

// Wrap direction constants for neighbour lookup, mirroring E_GROUP_WRAP.
type NeighbourMode int

// Neighbour lookup modes.
const (
	Clamp NeighbourMode = iota // no neighbour outside the group (ok=false)
	Wrap                       // torus wrap within the group, as Cannon needs
)

// Workgroup is a rows x cols rectangle of cores anchored at (OriginRow,
// OriginCol) in chip coordinates, the SDK's e_group_config equivalent.
type Workgroup struct {
	Chip       *ecore.Chip
	Rows, Cols int
	OriginRow  int
	OriginCol  int
}

// NewWorkgroup validates the rectangle against the chip and returns it.
func NewWorkgroup(ch *ecore.Chip, originRow, originCol, rows, cols int) (*Workgroup, error) {
	m := ch.Map()
	if rows <= 0 || cols <= 0 || originRow < 0 || originCol < 0 ||
		originRow+rows > m.Rows || originCol+cols > m.Cols {
		return nil, fmt.Errorf("sdk: workgroup %dx%d at (%d,%d) does not fit an %dx%d chip",
			rows, cols, originRow, originCol, m.Rows, m.Cols)
	}
	return &Workgroup{Chip: ch, Rows: rows, Cols: cols, OriginRow: originRow, OriginCol: originCol}, nil
}

// Size returns the number of cores in the group.
func (w *Workgroup) Size() int { return w.Rows * w.Cols }

// CoreIndex maps group coordinates to the chip-relative core index.
func (w *Workgroup) CoreIndex(gr, gc int) int {
	if gr < 0 || gr >= w.Rows || gc < 0 || gc >= w.Cols {
		panic(fmt.Sprintf("sdk: group coords (%d,%d) outside %dx%d group", gr, gc, w.Rows, w.Cols))
	}
	return w.Chip.Map().CoreIndex(w.OriginRow+gr, w.OriginCol+gc)
}

// Rank maps group coordinates to a linear rank (row-major).
func (w *Workgroup) Rank(gr, gc int) int { return gr*w.Cols + gc }

// GroupCoords returns the group coordinates of a core, and whether the
// core belongs to the group.
func (w *Workgroup) GroupCoords(c *ecore.Core) (gr, gc int, ok bool) {
	r, col := c.Coords()
	gr, gc = r-w.OriginRow, col-w.OriginCol
	return gr, gc, gr >= 0 && gr < w.Rows && gc >= 0 && gc < w.Cols
}

// Neighbour returns the chip core index of the neighbour at (dr, dc)
// relative to group position (gr, gc). With Clamp, ok is false when the
// neighbour falls outside the group; with Wrap the group is a torus.
func (w *Workgroup) Neighbour(gr, gc, dr, dc int, mode NeighbourMode) (idx int, ok bool) {
	nr, nc := gr+dr, gc+dc
	switch mode {
	case Wrap:
		nr = ((nr % w.Rows) + w.Rows) % w.Rows
		nc = ((nc % w.Cols) + w.Cols) % w.Cols
	default:
		if nr < 0 || nr >= w.Rows || nc < 0 || nc >= w.Cols {
			return 0, false
		}
	}
	return w.CoreIndex(nr, nc), true
}

// Launch starts kernel on every core of the group and returns the procs
// in rank order, for joining within the run: the engine's next Reset
// recycles them. The kernel receives its core and group position.
func (w *Workgroup) Launch(name string, kernel func(c *ecore.Core, gr, gc int)) []*sim.Proc {
	run := func(c *ecore.Core) {
		gr, gc, _ := w.GroupCoords(c)
		kernel(c, gr, gc)
	}
	procs := make([]*sim.Proc, 0, w.Size())
	for gr := 0; gr < w.Rows; gr++ {
		for gc := 0; gc < w.Cols; gc++ {
			procs = append(procs, w.Chip.LaunchIdx(w.CoreIndex(gr, gc), name, gr, gc, run))
		}
	}
	return procs
}

// Flags is a block of 32-bit flag words at one scratchpad offset, the
// same on every core: the low-level handshake the Epiphany's kernels
// build their synchronisation from. A core posts a counter into
// another core's slot with one remote store through the mesh and spins
// on its own slots until a counter reaches a value (the paper's
// `while (*flag < loopcount);` idiom). Flags is a value holding its
// core; building one allocates nothing.
type Flags struct {
	c    *ecore.Core
	base mem.Addr
}

// NewFlags returns core c's view of the flag words at offset base.
func NewFlags(c *ecore.Core, base mem.Addr) Flags { return Flags{c: c, base: base} }

// Post stores v into flag slot slot of chip core index core.
func (f Flags) Post(core, slot int, v uint32) {
	f.c.StoreGlobal32(f.c.Chip().Map().GlobalOf(core, f.base+mem.Addr(4*slot)), v)
}

// Await blocks until the calling core's own flag slot reaches v.
func (f Flags) Await(slot int, v uint32) {
	f.c.WaitLocal32GE(f.base+mem.Addr(4*slot), v)
}

// Barrier is a group-wide barrier, the e_barrier equivalent. Each member
// core creates its own Barrier (matching e_barrier_init's per-core
// arrays) and calls Wait each time. The implementation is the SDK's:
// members post an arrival counter into member 0's scratchpad with a
// direct remote store, member 0 spins on its arrival vector and then
// posts release counters back - so barrier cost emerges from real mesh
// traffic rather than being a magic constant.
//
// Member r's arrival word is SDKBase+4*r, so a group holds at most
// MaxBarrierGroup cores: a larger one would post past the scratchpad.
type Barrier struct {
	w     *Workgroup
	gr    int
	gc    int
	epoch uint32
}

// MaxBarrierGroup is the largest group whose arrival words fit the SDK
// region.
const MaxBarrierGroup = SDKSize / 4

// NewBarrier creates the calling core's barrier handle.
func NewBarrier(w *Workgroup, gr, gc int) *Barrier {
	return &Barrier{w: w, gr: gr, gc: gc}
}

// Wait blocks until every group member has reached the same epoch.
func (b *Barrier) Wait(c *ecore.Core) {
	b.epoch++
	w := b.w
	f := NewFlags(c, SDKBase)
	if rank := w.Rank(b.gr, b.gc); rank != 0 {
		f.Post(w.CoreIndex(0, 0), rank, b.epoch)
		f.Await(barrierRelease, b.epoch)
		return
	}
	// Root: note own arrival, wait for everyone, then release them.
	c.Local().Store32(SDKBase, b.epoch)
	for rank := 1; rank < w.Size(); rank++ {
		f.Await(rank, b.epoch)
	}
	for rank := 1; rank < w.Size(); rank++ {
		f.Post(w.CoreIndex(rank/w.Cols, rank%w.Cols), barrierRelease, b.epoch)
	}
}

// Mutex is the SDK's hardware mutex: a memory word on a designated core
// that supports an atomic test-and-set. Contending cores pay a remote
// round trip per attempt; the queue is served in arrival order.
type Mutex struct {
	chip   *ecore.Chip
	home   int // core whose memory holds the mutex word
	off    mem.Addr
	locked bool
	owner  int
	queue  *sim.Cond
	// stats
	acquisitions uint64
}

// NewMutex creates a mutex resident at offset off in core home's memory.
func NewMutex(ch *ecore.Chip, home int, off mem.Addr) *Mutex {
	return &Mutex{
		chip:  ch,
		home:  home,
		off:   off,
		queue: sim.NewCond(ch.Engine(), fmt.Sprintf("mutex:core%d:%#x", home, off)),
	}
}

// Lock acquires the mutex for core c, blocking while another core holds
// it. Each attempt costs a test-and-set round trip to the mutex's home
// core on the read-request network.
func (m *Mutex) Lock(c *ecore.Core) {
	p := c.Proc()
	for {
		// TESTSET round trip.
		done := m.chip.Fabric().Mesh.ReadWord(p.Now(), c.Index(), m.home)
		p.WaitUntil(done)
		if !m.locked {
			m.locked = true
			m.owner = c.Index()
			m.acquisitions++
			m.chip.Fabric().SRAMs[m.home].Store32(m.off, uint32(c.Index())|1<<31)
			return
		}
		p.WaitCond(m.queue)
	}
}

// Unlock releases the mutex; it panics if c does not hold it.
func (m *Mutex) Unlock(c *ecore.Core) {
	if !m.locked || m.owner != c.Index() {
		panic(fmt.Sprintf("sdk: core %d unlocking mutex it does not hold", c.Index()))
	}
	// The release is a posted remote store of zero.
	c.StoreGlobal32(m.chip.Map().GlobalOf(m.home, m.off), 0)
	m.locked = false
	m.queue.Broadcast()
}

// Acquisitions returns how many times the mutex has been taken.
func (m *Mutex) Acquisitions() uint64 { return m.acquisitions }
