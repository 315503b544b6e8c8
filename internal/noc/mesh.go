package noc

import (
	"fmt"

	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// Mesh is the eMesh fabric of one board: a rows x cols grid of routers
// with separate physical links per direction. The Epiphany has three
// mesh networks (on-chip write, off-chip write, read request); we model
// the on-chip write network with per-link contention, the read network
// analytically (the paper's codes avoid remote reads), and the off-chip
// write network via the ELink arbiter.
//
// On a multi-chip board (mem.NewBoardMap) the grid spans every chip and
// the router is chip-boundary aware: a hop between routers on different
// chips leaves the wide on-chip fabric for the narrow chip-to-chip
// eLink. All rows crossing the same vertical chip boundary within one
// chip share a single eLink per direction (likewise columns across a
// horizontal boundary), so boundary hops contend in the eLink's merge
// arbiter, pay C2CHopLatency, and re-serialize the whole message at
// C2CBytePeriod (the store-and-forward packetization of the off-chip
// protocol, 8x slower than an on-chip link).
type Mesh struct {
	amap               *mem.Map
	rows, cols         int
	chipRows, chipCols int
	// links holds the time each distinct physical link slot next falls
	// free: private on-chip directed links in [0, crossBase), then the
	// shared chip-to-chip eLink slots in [crossBase, len). A slot index
	// >= crossBase is what marks a hop as a chip-boundary crossing. A
	// hop books a slot with the same bandwidth-accounting model as
	// sim.Resource (begin = max(t, free), busy until begin+d), held as
	// plain values so building and resetting a fabric allocates nothing
	// per link.
	links     []sim.Time
	crossBase int32
	// hIdx[(r*(cols-1)+c)*2+d] is the slot of the horizontal link between
	// routers (r,c) and (r,c+1): d=0 eastbound, d=1 westbound. Boundary
	// columns alias the shared c2c slots (every row of a chip edge maps
	// to the same slot). vIdx is the same for vertical links between
	// (r,c) and (r+1,c): d=0 southbound, d=1 northbound.
	hIdx []int32
	vIdx []int32
	// c2cByte and c2cHop are this board's chip-to-chip eLink timing
	// parameters, defaulting to the calibrated C2CBytePeriod and
	// C2CHopLatency. They are construction-time properties of the fabric
	// (SetC2C models a faster or slower off-chip link), so Reset keeps
	// them: a recycled board stays the same board.
	c2cByte sim.Time
	c2cHop  sim.Time
	// gridRows x gridCols is the chip grid.
	gridRows, gridCols int
	// cnt holds the delivery statistics for the whole board.
	cnt meshCnt
	// rec, when non-nil, observes eLink crossings for timeline export;
	// attached per run via SetRecorder and cleared by Reset.
	rec Recorder
}

// meshCnt is the mesh's delivery statistics; the exported accessors
// (HopBytes, CrossReadBytes, Crossings, CrossBytes, CrossTime) document
// each counter.
type meshCnt struct {
	hopBytes       uint64
	crossReadBytes uint64
	crossings      uint64
	crossBytes     uint64
	crossTime      sim.Time
}

// NewMesh builds the eMesh for the given address map. The mesh only
// books link occupancy and never schedules events itself, so eng is
// not retained.
func NewMesh(eng *sim.Engine, amap *mem.Map) *Mesh {
	m := &Mesh{
		amap: amap, rows: amap.Rows, cols: amap.Cols,
		c2cByte: C2CBytePeriod, c2cHop: C2CHopLatency,
	}
	m.chipRows, m.chipCols = amap.ChipDims()
	gridRows, gridCols := amap.ChipGrid()
	m.gridRows, m.gridCols = gridRows, gridCols
	// Shared chip-to-chip eLink slots, resolved by index: one pair per
	// (vertical boundary, chip-grid row) and per (horizontal boundary,
	// chip-grid column).
	nVCross := (gridCols - 1) * gridRows * 2
	nHCross := (gridRows - 1) * gridCols * 2
	nH := m.rows * (m.cols - 1)
	nV := (m.rows - 1) * m.cols
	onChip := (nH+nV)*2 - m.rows*(gridCols-1)*2 - m.cols*(gridRows-1)*2
	m.crossBase = int32(onChip)
	m.links = make([]sim.Time, onChip+nVCross+nHCross)
	m.hIdx = make([]int32, nH*2)
	m.vIdx = make([]int32, nV*2)
	next := int32(0)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols-1; c++ {
			p := (r*(m.cols-1) + c) * 2
			if (c+1)%m.chipCols == 0 {
				// Vertical chip boundary after column c: every row of
				// this chip row shares the boundary's eLink pair.
				b := (c+1)/m.chipCols - 1
				slot := m.crossBase + int32((b*gridRows+r/m.chipRows)*2)
				m.hIdx[p], m.hIdx[p+1] = slot, slot+1
			} else {
				m.hIdx[p], m.hIdx[p+1] = next, next+1
				next += 2
			}
		}
	}
	for r := 0; r < m.rows-1; r++ {
		for c := 0; c < m.cols; c++ {
			p := (r*m.cols + c) * 2
			if (r+1)%m.chipRows == 0 {
				b := (r+1)/m.chipRows - 1
				slot := m.crossBase + int32(nVCross) + int32((b*gridCols+c/m.chipCols)*2)
				m.vIdx[p], m.vIdx[p+1] = slot, slot+1
			} else {
				m.vIdx[p], m.vIdx[p+1] = next, next+1
				next += 2
			}
		}
	}
	if next != m.crossBase {
		panic(fmt.Sprintf("noc: on-chip slot count mismatch: assigned %d, sized %d", next, m.crossBase))
	}
	return m
}

// Reset clears every link's occupancy and all delivery statistics,
// returning the fabric to its just-constructed state so a recycled board
// is bit-deterministic with a fresh one.
func (m *Mesh) Reset() {
	clear(m.links)
	m.cnt = meshCnt{}
	m.rec = nil
}

// SetRecorder attaches (or with nil, detaches) a timeline recorder for
// chip-to-chip crossings. Attach before a run; recycled boards drop the
// recorder on Reset.
func (m *Mesh) SetRecorder(r Recorder) { m.rec = r }

// Map returns the address map the mesh serves.
func (m *Mesh) Map() *mem.Map { return m.amap }

// Distance returns the Manhattan distance (= XY hop count) between cores.
func (m *Mesh) Distance(src, dst int) int {
	sr, sc := m.amap.CoreCoords(src)
	dr, dc := m.amap.CoreCoords(dst)
	return abs(sr-dr) + abs(sc-dc)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// hop books one directed link slot for a message whose head reaches the
// router at cur, and returns the time the message is past the hop plus
// whether the hop crossed a chip boundary. On-chip hops are cut-through:
// the head moves on after HopLatency while the link stays occupied for
// the serialization time. Boundary hops store-and-forward: the returned
// time is the tail's arrival on the far chip.
func (m *Mesh) hop(slot int32, cur, ser, serX sim.Time, n int) (sim.Time, bool) {
	begin := max(cur, m.links[slot])
	if slot >= m.crossBase {
		m.links[slot] = begin + serX
		next := begin + serX + m.c2cHop
		m.cnt.crossings++
		m.cnt.crossBytes += uint64(n)
		m.cnt.crossTime += next - cur
		if m.rec != nil {
			m.rec.ELinkCross(int(slot-m.crossBase), cur, next, n)
		}
		return next, true
	}
	m.links[slot] = begin + ser
	m.cnt.hopBytes += uint64(n)
	return begin + HopLatency, false
}

// chipAt returns the chip index of router (r,c) in row-major chip-grid
// order.
func (m *Mesh) chipAt(r, c int) int {
	return (r/m.chipRows)*m.gridCols + c/m.chipCols
}

// ChipOf returns the chip index of a core.
func (m *Mesh) ChipOf(core int) int {
	r, c := m.amap.CoreCoords(core)
	return m.chipAt(r, c)
}

// CrossChip reports whether cores a and b sit on different chips (a
// route between them crosses a chip-to-chip eLink). It is false on
// every single-chip board without computing chip indices.
func (m *Mesh) CrossChip(a, b int) bool {
	return m.gridRows*m.gridCols > 1 && m.ChipOf(a) != m.ChipOf(b)
}

// Deliver books an n-byte write transfer from src to dst onto the on-chip
// write network, requested at time t, and returns the time the last byte
// arrives at dst. It models wormhole cut-through: the head pays HopLatency
// per hop (plus queueing wherever a link is already busy) and every link
// on the path is occupied for the message's serialization time.
//
// Deliver does not charge the sender's CPU or DMA pacing; callers add
// their own issue costs (DirectWriteWordPeriod, DMASerialization, ...) and
// pass the max of the two serialization models as arrival when needed.
//
// Hops that cross a chip boundary leave the cut-through regime: the
// chip-to-chip eLink store-and-forwards the message at its own (much
// slower) serialization rate, after waiting for the shared link and
// paying the off-chip C2CHopLatency. The extra time spent on boundary
// crossings is accumulated in CrossTime. When the final hop is such a
// crossing, the store-and-forward time already covers the tail's
// arrival, so the on-chip serialization is not charged again.
//
// The XY route (X leg first, then Y) is walked inline over the flat
// slot arrays; a call performs no allocations.
func (m *Mesh) Deliver(t sim.Time, src, dst, n int) (arrive sim.Time) {
	if src == dst || n == 0 {
		return t
	}
	sr, sc := m.amap.CoreCoords(src)
	dr, dc := m.amap.CoreCoords(dst)
	ser := LinkSerialization(n)
	serX := sim.Time(n) * m.c2cByte
	cur := t
	lastCross := false
	hw := m.cols - 1
	for c := sc; c < dc; c++ {
		cur, lastCross = m.hop(m.hIdx[(sr*hw+c)*2], cur, ser, serX, n)
	}
	for c := sc; c > dc; c-- {
		cur, lastCross = m.hop(m.hIdx[(sr*hw+c-1)*2+1], cur, ser, serX, n)
	}
	for r := sr; r < dr; r++ {
		cur, lastCross = m.hop(m.vIdx[(r*m.cols+dc)*2], cur, ser, serX, n)
	}
	for r := sr; r > dr; r-- {
		cur, lastCross = m.hop(m.vIdx[((r-1)*m.cols+dc)*2+1], cur, ser, serX, n)
	}
	if lastCross {
		// The boundary eLink already delivered the tail (store-and-
		// forward); adding the on-chip serialization would charge the
		// final hop twice.
		return cur
	}
	return cur + ser
}

// Crossings returns how many chip-boundary eLink hops Deliver has routed
// (zero on a single-chip board).
func (m *Mesh) Crossings() uint64 {
	return m.cnt.crossings
}

// CrossBytes returns the total bytes carried over chip-to-chip eLinks.
func (m *Mesh) CrossBytes() uint64 {
	return m.cnt.crossBytes
}

// CrossTime returns the accumulated time messages spent traversing chip
// boundaries (arbitration waits, off-chip serialization and crossing
// latency), summed over deliveries.
func (m *Mesh) CrossTime() sim.Time {
	return m.cnt.crossTime
}

// SetC2C overrides the chip-to-chip eLink timing: the per-byte
// serialization period and the per-crossing head latency, in sim.Time
// units. A zero argument keeps the corresponding calibrated default
// (C2CBytePeriod, C2CHopLatency), so SetC2C(0, 0) is a no-op. The
// override is a property of the board, not of a run: Reset preserves
// it, and it has no effect on a single-chip mesh (which has no
// boundary links to apply it to).
func (m *Mesh) SetC2C(bytePeriod, hopLatency sim.Time) {
	if bytePeriod > 0 {
		m.c2cByte = bytePeriod
	}
	if hopLatency > 0 {
		m.c2cHop = hopLatency
	}
}

// C2C reports the board's chip-to-chip eLink timing parameters.
func (m *Mesh) C2C() (bytePeriod, hopLatency sim.Time) {
	return m.c2cByte, m.c2cHop
}

// ReadWord models a single remote 32-bit load from src's CPU to dst's
// memory: a full request/response round trip on the read network. Each
// chip boundary on the route adds a round trip over the chip-to-chip
// eLink's crossing latency. The word's traversals are charged to the
// energy counters (4 bytes each way per hop; boundary legs to the
// chip-to-chip read counter).
func (m *Mesh) ReadWord(t sim.Time, src, dst int) (done sim.Time) {
	hops := m.Distance(src, dst)
	crossings := m.amap.ChipCrossings(src, dst)
	cost := ReadWordRoundTrip + 2*sim.Time(hops)*HopLatency
	if crossings > 0 {
		cost += 2 * sim.Time(crossings) * m.c2cHop
	}
	// Distance counts boundary hops too; keep the split Deliver uses
	// (on-chip byte-hops vs chip-to-chip bytes).
	m.cnt.hopBytes += 8 * uint64(hops-crossings)
	m.cnt.crossReadBytes += 8 * uint64(crossings)
	return t + cost
}

// HopBytes returns the accumulated payload bytes x on-chip hops routed
// by Deliver plus the read network's round trips - the quantity the
// energy model prices per byte-hop. Chip-boundary traffic accrues to
// CrossBytes (writes) and CrossReadBytes (read trips) instead.
func (m *Mesh) HopBytes() uint64 {
	return m.cnt.hopBytes
}

// CrossReadBytes returns the bytes read-network round trips carried
// over chip-to-chip boundaries. It is kept apart from CrossBytes (a
// frozen time-domain metric); the energy capture prices their sum.
func (m *Mesh) CrossReadBytes() uint64 {
	return m.cnt.crossReadBytes
}
