package mem

import (
	"fmt"
	"sort"
)

// Region is a named reservation in a core's 32 KB scratchpad.
type Region struct {
	Name string
	Off  Addr
	Size int
}

// End returns the first offset past the region.
func (r Region) End() Addr { return r.Off + Addr(r.Size) }

// Banks returns the inclusive range of banks the region touches.
func (r Region) Banks() (first, last int) {
	return BankOf(r.Off), BankOf(r.End() - 1)
}

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

// NewLayout returns an empty plan.
func NewLayout() *Layout { return &Layout{} }

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
	l.regions = append(l.regions, r)
	sort.Slice(l.regions, func(i, j int) bool { return l.regions[i].Off < l.regions[j].Off })
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

// String renders the plan, one region per line, for diagnostics and docs.
func (l *Layout) String() string {
	s := ""
	for _, r := range l.regions {
		s += fmt.Sprintf("%-12s [%#06x,%#06x) %5d B  banks %d-%d\n",
			r.Name, r.Off, r.End(), r.Size, func() int { f, _ := r.Banks(); return f }(),
			func() int { _, la := r.Banks(); return la }())
	}
	return s
}
