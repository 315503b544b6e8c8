package mem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoreIDRoundTrip(t *testing.T) {
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			id := MakeCoreID(r, c)
			if id.Row() != r || id.Col() != c {
				t.Fatalf("MakeCoreID(%d,%d) round-trip gave (%d,%d)", r, c, id.Row(), id.Col())
			}
		}
	}
}

func TestGlobalAddressMatchesHardwareLayout(t *testing.T) {
	// Core (0,0) of the E64G401 sits at mesh (32,8) -> ID 0x808 ->
	// global base 0x80800000, as documented in the datasheet.
	m := NewMap(8, 8)
	if got := m.CoreIDOf(0); got != 0x808 {
		t.Fatalf("core 0 ID = %#x, want 0x808", got)
	}
	if got := m.GlobalOf(0, 0); got != 0x80800000 {
		t.Fatalf("core 0 base = %#x, want 0x80800000", got)
	}
	// Core (7,7) -> mesh (39,15) -> ID (39<<6)|15 = 0x9CF.
	if got := m.GlobalOf(m.CoreIndex(7, 7), 0x100); got != 0x9CF00100 {
		t.Fatalf("core (7,7)+0x100 = %#x, want 0x9CF00100", got)
	}
}

func TestDecodeLocalAlias(t *testing.T) {
	m := NewMap(8, 8)
	tgt := m.Decode(42, 0x1234)
	if tgt.Kind != KindLocal || tgt.Core != 42 || tgt.Off != 0x1234 {
		t.Fatalf("Decode local = %+v", tgt)
	}
	// Beyond SRAM but under the 1MB window: unmapped.
	if tgt := m.Decode(0, 0x8000); tgt.Kind != KindInvalid {
		t.Fatalf("0x8000 decoded as %v, want invalid", tgt.Kind)
	}
}

func TestDecodeRemoteCore(t *testing.T) {
	m := NewMap(8, 8)
	a := m.GlobalOf(m.CoreIndex(3, 5), 0x2000)
	tgt := m.Decode(0, a)
	if tgt.Kind != KindCore || tgt.Core != m.CoreIndex(3, 5) || tgt.Off != 0x2000 {
		t.Fatalf("Decode remote = %+v", tgt)
	}
	// A core's own global window decodes as KindCore (self-reference).
	self := m.GlobalOf(7, 0x10)
	tgt = m.Decode(7, self)
	if tgt.Kind != KindCore || tgt.Core != 7 {
		t.Fatalf("self-global decode = %+v", tgt)
	}
}

func TestDecodeDRAM(t *testing.T) {
	m := NewMap(8, 8)
	tgt := m.Decode(0, DRAMBase+0x100)
	if tgt.Kind != KindDRAM || tgt.Off != 0x100 {
		t.Fatalf("Decode DRAM = %+v", tgt)
	}
	if tgt := m.Decode(0, DRAMBase+DRAMSize); tgt.Kind != KindInvalid {
		t.Fatalf("past-end DRAM decoded as %v", tgt.Kind)
	}
}

func TestDecodeOffChipCoreInvalid(t *testing.T) {
	m := NewMap(8, 8)
	// Mesh node (1,1) exists in the 64x64 global space but not on this chip.
	a := MakeCoreID(1, 1).Global(0)
	if tgt := m.Decode(0, a); tgt.Kind != KindInvalid {
		t.Fatalf("off-chip core decoded as %v", tgt.Kind)
	}
	// SRAM hole in an on-chip core's window.
	a = m.CoreIDOf(5).Global(0) + SRAMSize
	if tgt := m.Decode(0, a); tgt.Kind != KindInvalid {
		t.Fatalf("SRAM hole decoded as %v", tgt.Kind)
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	m := NewMap(8, 8)
	f := func(core uint8, off uint16) bool {
		idx := int(core) % m.NumCores()
		o := Addr(off) % SRAMSize
		tgt := m.Decode(0, m.GlobalOf(idx, o))
		return tgt.Kind == KindCore && tgt.Core == idx && tgt.Off == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoreIndexCoordsRoundTrip(t *testing.T) {
	m := NewMap(8, 8)
	for i := 0; i < m.NumCores(); i++ {
		r, c := m.CoreCoords(i)
		if m.CoreIndex(r, c) != i {
			t.Fatalf("coords round-trip broke at %d", i)
		}
	}
}

func TestBankOf(t *testing.T) {
	cases := []struct {
		off  Addr
		bank int
	}{{0, 0}, {0x1FFF, 0}, {0x2000, 1}, {0x3FFF, 1}, {0x4000, 2}, {0x6000, 3}, {0x7FFF, 3}}
	for _, c := range cases {
		if got := BankOf(c.off); got != c.bank {
			t.Errorf("BankOf(%#x) = %d, want %d", c.off, got, c.bank)
		}
	}
}

func TestSRAMAccessors(t *testing.T) {
	s := NewSRAM()
	s.Store32(0x100, 0xDEADBEEF)
	if got := s.Load32(0x100); got != 0xDEADBEEF {
		t.Fatalf("Load32 = %#x", got)
	}
	// Little-endian byte order.
	if got := s.Load8(0x100); got != 0xEF {
		t.Fatalf("byte 0 = %#x, want 0xEF (little-endian)", got)
	}
	s.Store64(0x200, 0x0102030405060708)
	if got := s.Load64(0x200); got != 0x0102030405060708 {
		t.Fatalf("Load64 = %#x", got)
	}
	s.StoreF32(0x300, 3.5)
	if got := s.LoadF32(0x300); got != 3.5 {
		t.Fatalf("LoadF32 = %v", got)
	}
}

func TestSRAMBoundsPanic(t *testing.T) {
	s := NewSRAM()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range store should panic")
		}
	}()
	s.Store32(SRAMSize-2, 1)
}

// TestSRAMBulkF32MatchesPerElement: a LoadF32s/StoreF32s round trip
// leaves the same bytes and the same AccessedBytes as the per-element
// accessors over the same range.
func TestSRAMBulkF32MatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		off Addr
		n   int
	}{{0, 1}, {0x104, 7}, {0x2000, 256}, {SRAMSize - 4*33, 33}} {
		src := make([]float32, tc.n)
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32())
		}
		bulk, elem := NewSRAM(), NewSRAM()
		bulk.StoreF32s(tc.off, src)
		got := make([]float32, tc.n)
		bulk.LoadF32s(tc.off, got)
		for i, v := range src {
			elem.StoreF32(tc.off+Addr(4*i), v)
		}
		for i := range src {
			if w := elem.LoadF32(tc.off + Addr(4*i)); math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("off %#x n %d: element %d bulk %#x, per-element %#x",
					tc.off, tc.n, i, math.Float32bits(got[i]), math.Float32bits(w))
			}
		}
		if !bytes.Equal(image(bulk), image(elem)) {
			t.Fatalf("off %#x n %d: scratchpad bytes differ", tc.off, tc.n)
		}
		if b, e := bulk.AccessedBytes(), elem.AccessedBytes(); b != e || b != uint64(8*tc.n) {
			t.Fatalf("off %#x n %d: AccessedBytes bulk %d, per-element %d, want %d", tc.off, tc.n, b, e, 8*tc.n)
		}
	}
}

func TestSRAMBulkF32BoundsPanic(t *testing.T) {
	for name, f := range map[string]func(s *Memory){
		"LoadF32s":  func(s *Memory) { s.LoadF32s(SRAMSize-8, make([]float32, 3)) },
		"StoreF32s": func(s *Memory) { s.StoreF32s(SRAMSize-8, make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-range %s should panic", name)
				}
			}()
			f(NewSRAM())
		}()
	}
}

func TestSRAMChargeCountsWithoutMoving(t *testing.T) {
	s := NewSRAM()
	s.Charge(12)
	s.Store32(0, 1)
	if got := s.AccessedBytes(); got != 16 {
		t.Fatalf("AccessedBytes = %d, want 16", got)
	}
	if s.Load32(0) != 1 || s.Load32(4) != 0 {
		t.Fatal("Charge changed scratchpad contents")
	}
}

func TestCopyBetweenSRAMs(t *testing.T) {
	a, b := NewSRAM(), NewSRAM()
	for i := 0; i < 16; i++ {
		a.Store8(Addr(i), uint8(i+1))
	}
	Copy(b, 0x40, a, 0, 16)
	for i := 0; i < 16; i++ {
		if b.Load8(Addr(0x40+i)) != uint8(i+1) {
			t.Fatalf("byte %d not copied", i)
		}
	}
}

func TestDRAMAccessors(t *testing.T) {
	d := NewDRAM()
	d.StoreF32(0x1000, -2.25)
	if got := d.LoadF32(0x1000); got != -2.25 {
		t.Fatalf("DRAM float = %v", got)
	}
	// Write and Read copy: mutating either buffer afterwards leaves the
	// window alone.
	src := []byte{1, 2, 3, 4, 5}
	d.Write(0x2001, src)
	src[0] = 0xFF
	got := make([]byte, 5)
	d.Read(0x2001, got)
	got[1] = 0xFF
	if !bytes.Equal(got, []byte{1, 0xFF, 3, 4, 5}) || d.Load32(0x2001) != 0x04030201 {
		t.Fatalf("DRAM Write/Read round trip = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range DRAM access should panic")
		}
	}()
	d.Load32(DRAMSize - 1)
}

func TestLayoutPlaceAtAndOverlap(t *testing.T) {
	l := NewLayout()
	if _, err := l.PlaceAt("code", 0, 0x2000); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PlaceAt("clash", 0x1FFF, 16); err == nil {
		t.Fatal("overlap not detected")
	}
	if _, err := l.PlaceAt("huge", 0x7000, 0x2000); err == nil {
		t.Fatal("out-of-SRAM placement not detected")
	}
	if _, err := l.PlaceAt("empty", 0x3000, 0); err == nil {
		t.Fatal("zero-size region not rejected")
	}
	for n := 1; n < maxRegions; n++ {
		if _, err := l.PlaceAt("word", 0x2000+Addr(4*n), 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PlaceAt("extra", 0x4000, 4); err == nil {
		t.Fatalf("a region past the plan's %d not rejected", maxRegions)
	}
}

func TestLayoutPaperMatmulPlan(t *testing.T) {
	// The exact §VII layout: code in banks 0-1, stack in bank 1, A at
	// 0x4000, its rotation buffer at 0x5000, B at 0x5800, its buffer at
	// 0x6800, C at 0x7000. It must all fit; a double-buffered plan must not.
	l := NewLayout()
	mustPlace := func(name string, off Addr, size int) {
		t.Helper()
		if _, err := l.PlaceAt(name, off, size); err != nil {
			t.Fatal(err)
		}
	}
	mustPlace("code", 0x0000, 13*1024/1024*1024) // 13 KB of code+macros
	mustPlace("stack", 0x3400, 0x0C00)
	mustPlace("A", 0x4000, 0x1000)
	mustPlace("Abuf", 0x5000, 0x0800)
	mustPlace("B", 0x5800, 0x1000)
	mustPlace("Bbuf", 0x6800, 0x0800)
	mustPlace("C", 0x7000, 0x1000)

	// Full double buffering of 32x32 operands (3x4 KB + 2x4 KB extra)
	// alongside 13 KB of code cannot fit - the reason the paper invents
	// the half-buffer rotation scheme.
	l2 := NewLayout()
	if _, err := l2.PlaceAt("code", 0, 13*1024); err != nil {
		t.Fatal(err)
	}
	need := []int{4096, 4096, 4096, 4096, 4096} // A, A', B, B', C
	var err error
	for i, sz := range need {
		if _, err = l2.Alloc("buf", sz); err != nil {
			if i < 4 {
				t.Fatalf("only %d of 5 buffers placed before overflow; paper implies 4 fit (code 13KB + 16KB + stack impossible)", i)
			}
			break
		}
	}
	if err == nil {
		t.Fatal("double-buffered 32x32 plan should NOT fit in 32 KB with 13 KB code")
	}
}

func TestLayoutAllocSkipsReservations(t *testing.T) {
	l := NewLayout()
	if _, err := l.PlaceAt("hole", 0x100, 0x100); err != nil {
		t.Fatal(err)
	}
	r, err := l.Alloc("a", 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off != 0 {
		t.Fatalf("first gap at %#x, want 0", r.Off)
	}
	r2, err := l.Alloc("b", 0x200)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Off != 0x200 {
		t.Fatalf("second alloc at %#x, want 0x200 (after hole)", r2.Off)
	}
}

func TestLayoutAccounting(t *testing.T) {
	l := NewLayout()
	if _, err := l.PlaceAt("x", 0x1F00, 0x200); err != nil { // straddles banks 0 and 1
		t.Fatal(err)
	}
	use := l.BankUse()
	if use != [NumBanks]int{0x100, 0x100} {
		t.Fatalf("bank use = %v, want 256 in banks 0 and 1", use)
	}
}

func TestLayoutAlignment(t *testing.T) {
	l := NewLayout()
	if _, err := l.PlaceAt("pad", 0, 3); err != nil {
		t.Fatal(err)
	}
	r, err := l.Alloc("aligned", 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off != 8 {
		t.Fatalf("aligned alloc at %#x, want 8", r.Off)
	}
}

func TestSRAMResetZeroes(t *testing.T) {
	s := NewSRAM()
	s.Store32(0, 0xDEADBEEF)
	s.Store64(SRAMSize-8, ^uint64(0))
	s.Reset()
	if s.Load32(0) != 0 || s.Load64(SRAMSize-8) != 0 {
		t.Fatal("Reset left bytes behind")
	}
}

func TestNewSRAMsAreIndependent(t *testing.T) {
	srams := NewSRAMs(4)
	if len(srams) != 4 {
		t.Fatalf("NewSRAMs(4) returned %d scratchpads", len(srams))
	}
	srams[1].Store32(0x100, 42)
	for i, s := range srams {
		want := uint32(0)
		if i == 1 {
			want = 42
		}
		if got := s.Load32(0x100); got != want {
			t.Fatalf("sram %d reads %d, want %d", i, got, want)
		}
	}
}

// TestDRAMResetUsesWatermark: Reset zeroes every block written since the
// last Reset - through the word accessors and through Write - and keeps
// clearing across repeated cycles.
func TestDRAMResetUsesWatermark(t *testing.T) {
	d := NewDRAM()
	d.Store32(0, 1)
	d.StoreF32(1<<20, 2.5)
	d.Reset()
	if d.Load32(0) != 0 || d.LoadF32(1<<20) != 0 {
		t.Fatal("Reset left dirty bytes")
	}
	// Repeated cycles still clear.
	d.Store32(64, 7)
	d.Reset()
	if d.Load32(64) != 0 {
		t.Fatal("second Reset left dirty bytes")
	}
	// A bulk write straddling a block boundary dirties both blocks.
	d.Write(blockSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Reset()
	got := make([]byte, 8)
	d.Read(blockSize-4, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("bytes %v survived Reset across a block boundary", got)
	}
	// A block written in an earlier cycle and only read since is clear.
	d.Store32(4096, 0xAA)
	d.Reset()
	_ = d.Load32(4096)
	d.Reset()
	if d.Load32(4096) != 0 || d.AccessedBytes() != 4 {
		t.Fatal("re-Reset block not zero, or AccessedBytes not cleared")
	}
}
