package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// Region is a named reservation in a core's 32 KB scratchpad.
type Region struct {
	Name string
	Off  Addr
	Size int
}

// End returns the first offset past the region.
func (r Region) End() Addr { return r.Off + Addr(r.Size) }

// Layout is a static allocation plan for one core's scratchpad. It is how
// the simulator enforces the constraint at the heart of the paper: 32 KB
// must hold code, data and stack, and performance-critical placement is
// explicit (e.g. §VII puts matrix A at 0x4000, B at 0x5800, C at 0x7000
// with 2 KB rotation buffers beside A and B).
//
// Layouts fail loudly: reserving overlapping or out-of-range regions
// returns an error, which is exactly the feedback a programmer gets from
// the real linker scripts (or from a crash).
type Layout struct {
	regions [maxRegions]Region // sorted by offset; the first n are placed
	n       int
}

// maxRegions bounds a plan: a kernel places a handful of regions. They
// are held inline, so a plan checked and dropped by its builder costs
// no allocation.
const maxRegions = 16

// NewLayout returns an empty plan.
func NewLayout() *Layout { return &Layout{} }

// PlaceAt reserves [off, off+size) under name. It fails if the range
// leaves the 32 KB scratchpad, collides with an earlier reservation or
// would be the plan's 17th region.
func (l *Layout) PlaceAt(name string, off Addr, size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("mem: region %q has non-positive size %d", name, size)
	}
	if int(off)+size > SRAMSize {
		return Region{}, fmt.Errorf("mem: region %q [%#x,%#x) exceeds 32 KB scratchpad",
			name, off, int(off)+size)
	}
	if l.n == maxRegions {
		return Region{}, fmt.Errorf("mem: region %q exceeds the plan's %d regions", name, maxRegions)
	}
	r := Region{Name: name, Off: off, Size: size}
	placed := l.regions[:l.n]
	for _, o := range placed {
		if r.Off < o.End() && o.Off < r.End() {
			return Region{}, fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, r.Off, r.End(), o.Name, o.Off, o.End())
		}
	}
	i, _ := slices.BinarySearchFunc(placed, r.Off, func(o Region, off Addr) int { return cmp.Compare(o.Off, off) })
	copy(l.regions[i+1:l.n+1], placed[i:])
	l.regions[i] = r
	l.n++
	return r, nil
}

// allocAlign is the alignment of every Alloc'd region: the doubleword
// a DMA beat moves.
const allocAlign Addr = 8

// Alloc reserves size bytes in the lowest free 8-byte-aligned gap.
func (l *Layout) Alloc(name string, size int) (Region, error) {
	cursor := Addr(0)
	for _, o := range l.regions[:l.n] {
		if o.End() <= cursor {
			continue
		}
		if o.Off >= cursor+Addr(size) {
			break // gap before o fits
		}
		cursor = (o.End() + allocAlign - 1) &^ (allocAlign - 1)
	}
	if cursor+Addr(size) > SRAMSize {
		return Region{}, fmt.Errorf("mem: no room for %q (%d bytes) in scratchpad: %s",
			name, size, l.describeUse())
	}
	return l.PlaceAt(name, cursor, size)
}

// BankUse returns the reserved byte count per bank.
func (l *Layout) BankUse() [NumBanks]int {
	var use [NumBanks]int
	for _, r := range l.regions[:l.n] {
		for off := r.Off; off < r.End(); {
			b := BankOf(off)
			end := Addr(b+1) * BankSize
			if end > r.End() {
				end = r.End()
			}
			use[b] += int(end - off)
			off = end
		}
	}
	return use
}

func (l *Layout) describeUse() string {
	use := l.BankUse()
	return fmt.Sprintf("bank use %v of %d each", use, BankSize)
}
