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
	regions []Region
}

// NewLayout returns an empty plan, with room for the handful of regions
// a kernel places.
func NewLayout() *Layout { return &Layout{regions: make([]Region, 0, 8)} }

// PlaceAt reserves [off, off+size) under name. It fails if the range
// leaves the 32 KB scratchpad or collides with an earlier reservation.
func (l *Layout) PlaceAt(name string, off Addr, size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("mem: region %q has non-positive size %d", name, size)
	}
	if int(off)+size > SRAMSize {
		return Region{}, fmt.Errorf("mem: region %q [%#x,%#x) exceeds 32 KB scratchpad",
			name, off, int(off)+size)
	}
	r := Region{Name: name, Off: off, Size: size}
	for _, o := range l.regions {
		if r.Off < o.End() && o.Off < r.End() {
			return Region{}, fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, r.Off, r.End(), o.Name, o.Off, o.End())
		}
	}
	i, _ := slices.BinarySearchFunc(l.regions, r.Off, func(o Region, off Addr) int { return cmp.Compare(o.Off, off) })
	l.regions = slices.Insert(l.regions, i, r)
	return r, nil
}

// Alloc reserves size bytes in the lowest free gap that starts in bank
// bank (or any bank if bank < 0), aligned to align (a power of two; 0 or 1
// means byte-aligned).
func (l *Layout) Alloc(name string, size int, bank int, align Addr) (Region, error) {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return Region{}, fmt.Errorf("mem: alignment %d not a power of two", align)
	}
	lo, hi := Addr(0), Addr(SRAMSize)
	if bank >= 0 {
		if bank >= NumBanks {
			return Region{}, fmt.Errorf("mem: bank %d out of range", bank)
		}
		lo, hi = Addr(bank)*BankSize, Addr(bank+1)*BankSize
	}
	cursor := (lo + align - 1) &^ (align - 1)
	for _, o := range l.regions {
		if o.End() <= cursor {
			continue
		}
		if o.Off >= cursor+Addr(size) {
			break // gap before o fits
		}
		cursor = (o.End() + align - 1) &^ (align - 1)
	}
	if cursor+Addr(size) > hi || cursor < lo {
		where := "scratchpad"
		if bank >= 0 {
			where = fmt.Sprintf("bank %d", bank)
		}
		return Region{}, fmt.Errorf("mem: no room for %q (%d bytes) in %s: %s",
			name, size, where, l.describeUse())
	}
	return l.PlaceAt(name, cursor, size)
}

// BankUse returns the reserved byte count per bank.
func (l *Layout) BankUse() [NumBanks]int {
	var use [NumBanks]int
	for _, r := range l.regions {
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
