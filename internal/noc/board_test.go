package noc

import (
	"testing"

	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// newBoardMesh builds the 2x2-cluster fabric: four 4x4 chips in an 8x8
// mesh with chip boundaries after row 3 and column 3.
func newBoardMesh() (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	return eng, NewMesh(eng, mem.NewBoardMap(2, 2, 4, 4))
}

func TestBoardMapChipGeometry(t *testing.T) {
	m := mem.NewBoardMap(2, 2, 4, 4)
	if gr, gc := m.ChipGrid(); m.Rows != 8 || m.Cols != 8 || gr != 2 || gc != 2 {
		t.Fatalf("board %dx%d/%dx%d chips", m.Rows, m.Cols, gr, gc)
	}
	idx := m.CoreIndex
	if m.ChipOf(idx(0, 0)) != m.ChipOf(idx(3, 3)) {
		t.Error("(0,0) and (3,3) are on the same chip")
	}
	if m.ChipOf(idx(0, 3)) == m.ChipOf(idx(0, 4)) {
		t.Error("(0,3) and (0,4) straddle the column boundary")
	}
	if got := m.ChipOf(idx(5, 6)); got != 3 {
		t.Errorf("ChipOf(5,6) = %d, want 3", got)
	}
	if got := m.ChipCrossings(idx(0, 0), idx(7, 7)); got != 2 {
		t.Errorf("corner-to-corner crossings = %d, want 2", got)
	}
	if got := m.ChipCrossings(idx(1, 1), idx(2, 2)); got != 0 {
		t.Errorf("intra-chip crossings = %d, want 0", got)
	}
	// The chips' address origins tile the global mesh space contiguously.
	if got := m.CoreIDOf(idx(4, 4)); got != mem.MakeCoreID(mem.FirstRow+4, mem.FirstCol+4) {
		t.Errorf("chip (1,1) origin = %v", got)
	}
	// Addressing is unchanged: core (5,6)'s global window decodes back.
	a := m.GlobalOf(idx(5, 6), 0x100)
	tgt := m.Decode(0, a)
	if tgt.Kind != mem.KindCore || tgt.Core != idx(5, 6) || tgt.Off != 0x100 {
		t.Errorf("decode of cross-chip global address = %+v", tgt)
	}
}

func TestBoardDeliverChargesCrossing(t *testing.T) {
	_, m := newBoardMesh()
	idx := m.Map().CoreIndex
	n := 64
	ser := LinkSerialization(n)
	serX := sim.Time(n) * C2CBytePeriod

	// Intra-chip delivery is priced exactly like a single-chip mesh.
	if got := m.Deliver(0, idx(0, 0), idx(0, 3), n); got != 3*HopLatency+ser {
		t.Fatalf("intra-chip arrival %v, want %v", got, 3*HopLatency+ser)
	}
	if m.Crossings() != 0 {
		t.Fatalf("intra-chip delivery counted %d crossings", m.Crossings())
	}

	// One boundary hop: the message store-and-forwards over the
	// chip-to-chip eLink at its slower rate plus the crossing latency.
	// The eLink delivers the tail itself - serX covers every byte - so
	// no on-chip serialization is charged on top (that double charge was
	// the multi-chip delivery overcharge bug).
	got := m.Deliver(1000, idx(0, 3), idx(0, 4), n)
	want := sim.Time(1000) + serX + C2CHopLatency
	if got != want {
		t.Fatalf("boundary arrival %v, want %v", got, want)
	}
	if m.Crossings() != 1 || m.CrossBytes() != uint64(n) {
		t.Fatalf("crossings=%d bytes=%d after one boundary hop", m.Crossings(), m.CrossBytes())
	}
	if m.CrossTime() != serX+C2CHopLatency {
		t.Fatalf("CrossTime %v, want %v", m.CrossTime(), serX+C2CHopLatency)
	}

	// The crossing must dominate an equal-distance on-chip hop.
	if onChip := HopLatency + ser; got-1000 <= onChip {
		t.Fatalf("boundary hop (%v) not slower than on-chip hop (%v)", got-1000, onChip)
	}
}

// TestBoardFinalHopChargedOnce pins the expected-value arithmetic of the
// final delivery hop: an on-chip final hop is cut-through (head latency
// plus one message serialization), a chip-boundary final hop is store-
// and-forward (eLink serialization plus crossing latency, nothing more).
// Before the overcharge fix the boundary case was additionally billed
// the on-chip serialization it never performed.
func TestBoardFinalHopChargedOnce(t *testing.T) {
	_, m := newBoardMesh()
	idx := m.Map().CoreIndex
	n := 128
	ser := LinkSerialization(n)
	serX := sim.Time(n) * C2CBytePeriod

	// One on-chip hop: cut-through. Head arrives after HopLatency, tail
	// ser later.
	if got, want := m.Deliver(0, idx(0, 0), idx(0, 1), n), HopLatency+ser; got != want {
		t.Errorf("one on-chip hop arrives at %v, want HopLatency+ser = %v", got, want)
	}

	// One boundary hop: store-and-forward. The eLink carries every byte
	// at C2CBytePeriod and the tail is on the far chip once that (plus
	// the crossing latency) is paid; no on-chip serialization remains.
	if got, want := m.Deliver(0, idx(1, 3), idx(1, 4), n), serX+C2CHopLatency; got != want {
		t.Errorf("one boundary hop arrives at %v, want serX+C2CHopLatency = %v", got, want)
	}

	// Boundary hop followed by an on-chip hop: the message re-enters the
	// cut-through regime after the crossing, so the on-chip serialization
	// is charged exactly once, by the trailing on-chip leg. (Row 4 sits
	// in the other chip row, whose boundary eLink is independent of the
	// one the previous delivery occupied.)
	if got, want := m.Deliver(0, idx(4, 3), idx(4, 5), n), serX+C2CHopLatency+HopLatency+ser; got != want {
		t.Errorf("boundary-then-on-chip arrives at %v, want serX+C2CHopLatency+HopLatency+ser = %v", got, want)
	}
}

func TestBoardBoundaryLinkIsSharedPerChipEdge(t *testing.T) {
	_, m := newBoardMesh()
	idx := m.Map().CoreIndex
	n := 1024

	// Rows 0 and 1 cross the same west-chip/east-chip boundary within
	// chip row 0: they share one eLink and must serialize.
	a := m.Deliver(0, idx(0, 3), idx(0, 4), n)
	b := m.Deliver(0, idx(1, 3), idx(1, 4), n)
	if b <= a {
		t.Fatalf("same-edge crossings did not contend: %v then %v", a, b)
	}
	if serX := sim.Time(n) * C2CBytePeriod; b-a < serX {
		t.Fatalf("second crossing queued only %v, want >= one serialization %v", b-a, serX)
	}

	// A crossing on the other chip row uses that boundary's own eLink.
	c := m.Deliver(0, idx(4, 3), idx(4, 4), n)
	if c != a {
		t.Fatalf("independent chip edge contended: %v, want %v", c, a)
	}
}

func TestBoardReadWordPaysCrossings(t *testing.T) {
	_, m := newBoardMesh()
	idx := m.Map().CoreIndex
	intra := m.ReadWord(0, idx(0, 2), idx(0, 3))
	cross := m.ReadWord(0, idx(0, 3), idx(0, 4))
	if cross-intra != 2*C2CHopLatency {
		t.Fatalf("boundary read adds %v, want a %v round trip", cross-intra, 2*C2CHopLatency)
	}
}

func TestSingleChipMeshHasNoCrossings(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	m.Deliver(0, idx(0, 0), idx(7, 7), 512)
	if m.Crossings() != 0 || m.CrossTime() != 0 {
		t.Fatalf("single-chip mesh reported crossings=%d time=%v", m.Crossings(), m.CrossTime())
	}
}

// deliverTrace drives a pseudo-random schedule of concurrent deliveries
// over the board mesh (many spanning chip boundaries) and returns every
// arrival time in completion order.
func deliverTrace(seed uint64) []sim.Time {
	eng, m := newBoardMesh()
	rng := sim.NewRand(seed)
	cores := m.Map().NumCores()
	var arrivals []sim.Time
	for p := 0; p < 16; p++ {
		start := sim.Time(rng.Intn(100))
		moves := 4 + rng.Intn(8)
		src := rng.Intn(cores)
		dsts := make([]int, moves)
		sizes := make([]int, moves)
		for i := range dsts {
			dsts[i] = rng.Intn(cores)
			sizes[i] = 8 * (1 + rng.Intn(64))
		}
		eng.SpawnAt(start, "router-proc", func(pr *sim.Proc) {
			for i := 0; i < moves; i++ {
				arrive := m.Deliver(pr.Now(), src, dsts[i], sizes[i])
				pr.WaitUntil(arrive)
				arrivals = append(arrivals, arrive)
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return arrivals
}

// FuzzBoardDeliverDeterminism: same seed + same spawn order => the
// multi-chip router produces an identical event trace. The seed corpus
// runs under plain `go test`; `go test -fuzz` explores further.
func FuzzBoardDeliverDeterminism(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 0xDEADBEEF, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		a, b := deliverTrace(seed), deliverTrace(seed)
		if len(a) != len(b) {
			t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	})
}

// TestBoardC2COverrides prices deliveries under overridden chip-to-chip
// timing with the same expected-value arithmetic as the tests above,
// and checks the override's contract: zero arguments are no-ops, and
// Reset keeps the override (it is a property of the board, not a run).
func TestBoardC2COverrides(t *testing.T) {
	_, m := newBoardMesh()
	idx := m.Map().CoreIndex
	n := 64

	byteP, hopL := 2*C2CBytePeriod, 3*C2CHopLatency
	m.SetC2C(byteP, hopL)
	if bp, hl := m.C2C(); bp != byteP || hl != hopL {
		t.Fatalf("C2C() = (%v, %v), want (%v, %v)", bp, hl, byteP, hopL)
	}
	serX := sim.Time(n) * byteP

	// One boundary hop under the slower link: store-and-forward at the
	// overridden rate plus the overridden crossing latency.
	got := m.Deliver(0, idx(0, 3), idx(0, 4), n)
	if want := serX + hopL; got != want {
		t.Fatalf("overridden boundary arrival %v, want %v", got, want)
	}
	if m.CrossTime() != serX+hopL {
		t.Fatalf("CrossTime %v, want %v", m.CrossTime(), serX+hopL)
	}

	// Intra-chip routes never see the override.
	ser := LinkSerialization(n)
	if got := m.Deliver(0, idx(0, 0), idx(0, 3), n); got != 3*HopLatency+ser {
		t.Fatalf("intra-chip arrival %v under override, want %v", got, 3*HopLatency+ser)
	}

	// The read network pays the overridden crossing latency per boundary.
	base := ReadWordRoundTrip + 2*HopLatency
	if got := m.ReadWord(0, idx(0, 3), idx(0, 4)); got != base+2*hopL {
		t.Fatalf("cross-chip ReadWord %v, want %v", got, base+2*hopL)
	}

	// Reset clears occupancy and stats but keeps the board's link timing.
	m.Reset()
	if bp, hl := m.C2C(); bp != byteP || hl != hopL {
		t.Fatalf("Reset dropped the C2C override: (%v, %v)", bp, hl)
	}
	if got := m.Deliver(0, idx(0, 3), idx(0, 4), n); got != serX+hopL {
		t.Fatalf("post-Reset boundary arrival %v, want %v", got, serX+hopL)
	}

	// Zero arguments keep the current values.
	m.SetC2C(0, 0)
	if bp, hl := m.C2C(); bp != byteP || hl != hopL {
		t.Fatalf("SetC2C(0,0) changed timing to (%v, %v)", bp, hl)
	}

	// A fresh mesh defaults to the calibrated constants.
	_, fresh := newBoardMesh()
	if bp, hl := fresh.C2C(); bp != C2CBytePeriod || hl != C2CHopLatency {
		t.Fatalf("fresh mesh C2C = (%v, %v), want calibrated defaults", bp, hl)
	}
}
