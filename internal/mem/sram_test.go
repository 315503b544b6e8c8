package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// sramRef is the differential reference for the block-backed
// scratchpad: a flat 32 KB array that Reset zeroes whole, and the access
// counter.
type sramRef struct {
	data     [SRAMSize]byte
	accessed uint64
}

// sramImage returns the scratchpad's 32 KB, read without charging.
func sramImage(s *SRAM) []byte {
	b := make([]byte, SRAMSize)
	s.read(0, b)
	return b
}

// sramDRAMWindow is the stretch of shared DRAM the differential moves
// scratchpad bytes to and from: it straddles the boundary of pages 0
// and 1.
const sramDRAMWindow = 3 * sramBlockSize

// sramDRAMBase is where that stretch starts in the window.
const sramDRAMBase = dramPageSize - sramBlockSize

// sramOffset returns an offset within 128 bytes of a block boundary,
// the scratchpad's end included, so operations overlap one another,
// straddle blocks, start unaligned and end exactly at the last byte.
func (s *opStream) sramOffset() int {
	b := s.byte() % (sramBlocks + 1)
	return min(SRAMSize, max(0, b*sramBlockSize+int(int8(s.byte()))))
}

// sramLength returns a byte count of up to two and a bit blocks that,
// from off, stays inside the scratchpad.
func (s *opStream) sramLength(off int) int {
	return min(s.u16()%(2*sramBlockSize+9), SRAMSize-off)
}

// sramHarness is the state the differential runs on: two scratchpads
// carved out of one backing array, a shared DRAM window for the DMA
// legs, and their flat references.
type sramHarness struct {
	srams   []*SRAM
	refs    [2]*sramRef
	dram    *DRAM
	dramRef [sramDRAMWindow]byte
	dramAcc uint64
}

// blockTable snapshots which blocks each scratchpad has allocated.
func (h *sramHarness) blockTable() [2][sramBlocks]*sramBlock {
	return [2][sramBlocks]*sramBlock{h.srams[0].blocks, h.srams[1].blocks}
}

// runSRAMOps interprets ops against a fresh harness, then Resets it and
// replays the same ops: the warm pass must allocate no block, and Reset
// must keep every block the first pass allocated.
func runSRAMOps(t *testing.T, ops []byte) {
	h := &sramHarness{srams: NewSRAMs(2), refs: [2]*sramRef{new(sramRef), new(sramRef)}, dram: NewDRAM()}
	h.run(t, ops)
	cold := h.blockTable()
	for k, s := range h.srams {
		s.Reset()
		*h.refs[k] = sramRef{}
	}
	if h.blockTable() != cold {
		t.Fatal("Reset released or replaced an allocated block")
	}
	h.run(t, ops)
	if h.blockTable() != cold {
		t.Fatal("the warm rerun allocated a block the first pass did not")
	}
}

// run interprets ops. After every operation it compares every byte and
// AccessedBytes of both scratchpads and the DRAM stretch with their
// references; checks that every block holding a nonzero byte is marked
// dirty, that every dirty block is allocated and that the shared zero
// block is still zero; that a read allocated and marked nothing; and
// that a write allocated and marked every block it covers.
func (h *sramHarness) run(t *testing.T, ops []byte) {
	srams, refs := h.srams, h.refs
	st := &opStream{ops}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	for step := 0; len(st.b) > 0 && step < 64; step++ {
		op := st.byte()
		kind, i := op%11, op/11%2
		s, r := srams[i], refs[i]
		off := st.sramOffset()
		n := st.sramLength(off)
		where := fmt.Sprintf("step %d (op %d on SRAM %d, [%#x,+%d))", step, kind, i, off, n)
		// word clamps a w-byte access at off inside the scratchpad.
		word := func(w int) Addr {
			off = min(off, SRAMSize-w)
			n = w
			r.accessed += uint64(w)
			return Addr(off)
		}
		// dramOff picks where a DMA leg's n bytes sit in the DRAM stretch.
		dramOff := func() int { return st.u16() % (sramDRAMWindow - n + 1) }
		before := h.blockTable()
		dirtyBefore := [2][sramBlocks]bool{srams[0].dirty, srams[1].dirty}
		reads, writes := false, true
		switch kind {
		case 0:
			v := uint8(rng.Uint32())
			s.Store8(word(1), v)
			r.data[off] = v
		case 1:
			v := rng.Uint32()
			s.Store32(word(4), v)
			binary.LittleEndian.PutUint32(r.data[off:], v)
		case 2:
			v := rng.Uint64()
			s.Store64(word(8), v)
			binary.LittleEndian.PutUint64(r.data[off:], v)
		case 3:
			src := make([]float32, n/4)
			for j := range src {
				bits := rng.Uint32()
				src[j] = math.Float32frombits(bits)
				binary.LittleEndian.PutUint32(r.data[off+4*j:], bits)
			}
			s.StoreF32s(Addr(off), src)
			n = 4 * len(src)
			r.accessed += uint64(n)
		case 4:
			reads, writes = true, false
			got := make([]float32, n/4)
			for j := range got {
				got[j] = math.Float32frombits(0xA5A5A5A5)
			}
			s.LoadF32s(Addr(off), got)
			r.accessed += uint64(4 * len(got))
			for j, v := range got {
				if want := binary.LittleEndian.Uint32(r.data[off+4*j:]); math.Float32bits(v) != want {
					t.Fatalf("%s: float %d = %#x, flat scratchpad %#x", where, j, math.Float32bits(v), want)
				}
			}
		case 5:
			w := make([]byte, n)
			rng.Read(w)
			s.Write(Addr(off), w)
			copy(r.data[off:], w)
			r.accessed += uint64(n)
		case 6: // Copy from either scratchpad, overlapping when it is s
			j := st.byte() % 2
			so := st.sramOffset()
			n = min(n, SRAMSize-so)
			Copy(s, Addr(off), srams[j], Addr(so), n)
			copy(r.data[off:off+n], refs[j].data[so:so+n])
			r.accessed += uint64(n)
			refs[j].accessed += uint64(n)
		case 7:
			writes = false
			s.Reset()
			*r = sramRef{}
			if s.dirty != [sramBlocks]bool{} {
				t.Fatalf("%s: Reset left blocks %v marked", where, s.dirty)
			}
			if h.blockTable() != before {
				t.Fatalf("%s: Reset released or replaced a block", where)
			}
		case 8: // the word loads and Read
			reads, writes = true, false
			if a := word(1); s.Load8(a) != r.data[a] {
				t.Fatalf("%s: Load8 = %#x, flat scratchpad %#x", where, s.Load8(a), r.data[a])
			}
			if a := word(4); s.Load32(a) != binary.LittleEndian.Uint32(r.data[a:]) {
				t.Fatalf("%s: Load32 at %#x differs from the flat scratchpad", where, a)
			}
			if a := word(8); s.Load64(a) != binary.LittleEndian.Uint64(r.data[a:]) {
				t.Fatalf("%s: Load64 at %#x differs from the flat scratchpad", where, a)
			}
			n = st.sramLength(off)
			got := make([]byte, n)
			s.Read(Addr(off), got)
			if !bytes.Equal(got, r.data[off:off+n]) {
				t.Fatalf("%s: Read differs from the flat scratchpad", where)
			}
			r.accessed += uint64(n)
		case 9: // a DMA leg into the scratchpad
			do := dramOff()
			CopyFromDRAM(s, Addr(off), h.dram, Addr(sramDRAMBase+do), n)
			copy(r.data[off:off+n], h.dramRef[do:])
			r.accessed += uint64(n)
			h.dramAcc += uint64(n)
		case 10: // a DMA leg out of the scratchpad
			reads, writes = true, false
			do := dramOff()
			CopyToDRAM(h.dram, Addr(sramDRAMBase+do), s, Addr(off), n)
			copy(h.dramRef[do:do+n], r.data[off:])
			r.accessed += uint64(n)
			h.dramAcc += uint64(n)
		}
		after := h.blockTable()
		for k, s := range srams {
			r := refs[k]
			if !bytes.Equal(sramImage(s), r.data[:]) {
				t.Fatalf("%s: SRAM %d differs from the flat scratchpad", where, k)
			}
			if got, want := s.AccessedBytes(), r.accessed; got != want {
				t.Fatalf("%s: SRAM %d AccessedBytes = %d, flat scratchpad %d", where, k, got, want)
			}
			for b := range sramBlocks {
				blk := r.data[b*sramBlockSize : (b+1)*sramBlockSize]
				if !s.dirty[b] && !bytes.Equal(blk, zeroBlock[:]) {
					t.Fatalf("%s: SRAM %d block %d holds data but is not marked dirty", where, k, b)
				}
				if s.dirty[b] && s.blocks[b] == &zeroBlock {
					t.Fatalf("%s: SRAM %d block %d is marked dirty but not allocated", where, k, b)
				}
			}
			if reads && (s.dirty != dirtyBefore[k] || after[k] != before[k]) {
				t.Fatalf("%s: a read marked or allocated SRAM %d's blocks %v, was %v", where, k, s.dirty, dirtyBefore[k])
			}
		}
		if zeroBlock != (sramBlock{}) {
			t.Fatalf("%s: a write reached the shared zero block", where)
		}
		if writes && n > 0 {
			for b := off / sramBlockSize; b <= (off+n-1)/sramBlockSize; b++ {
				if !s.dirty[b] || s.blocks[b] == &zeroBlock {
					t.Fatalf("%s: the write left block %d of SRAM %d unmarked or unallocated", where, b, i)
				}
			}
		}
		got := make([]byte, sramDRAMWindow)
		h.dram.read(sramDRAMBase, got)
		if !bytes.Equal(got, h.dramRef[:]) {
			t.Fatalf("%s: the DRAM stretch differs from its flat copy", where)
		}
		if h.dram.AccessedBytes() != h.dramAcc {
			t.Fatalf("%s: DRAM AccessedBytes = %d, want %d", where, h.dram.AccessedBytes(), h.dramAcc)
		}
	}
}

// TestSRAMDirtyDifferential runs seeded random operation sequences -
// every write and read path, aligned and not, inside and across block
// boundaries, with Resets between - against a flat scratchpad that
// Reset zeroes whole, then replays each sequence on the warm scratchpads.
func TestSRAMDirtyDifferential(t *testing.T) {
	// A word, a doubleword and a float run straddling the block 0/1
	// boundary, a Copy of the straddled bytes into the last 16 bytes of
	// the scratchpad, then Reset and every read path over both places.
	runSRAMOps(t, []byte{
		1, 1, 0xFE, 0, 0, // Store32 at 0xFFE
		2, 1, 0xFC, 0, 0, // Store64 at 0xFFC
		3, 1, 0xF0, 0x40, 0, // StoreF32s of 16 floats at 0xFF0
		6, 8, 0xF0, 0x20, 0, 0, 1, 0xF0, // Copy [0xFF0,+16) to [0x7FF0,+16)
		7, 0, 0, 0, 0, // Reset
		8, 1, 0xFE, 0x10, 0, 0x10, 0, // loads and a Read at 0xFFE
		4, 1, 0xF0, 0x40, 0, // LoadF32s of 16 floats at 0xFF0
		8, 8, 0xF0, 0x20, 0, 0x10, 0, // loads and a Read at 0x7FF0
	})
	// A DMA leg of 0x1010 bytes out of block 2 into DRAM across its page
	// boundary, then back into blocks 5-6.
	runSRAMOps(t, []byte{
		5, 2, 0, 0x10, 0x10, // Write [0x2000,+0x1010)
		10, 2, 0, 0x10, 0x10, 0xF8, 0x0F, // CopyToDRAM to DRAM 0xFFF8 - 0x1000
		9, 5, 0x08, 0x10, 0x10, 0xF8, 0x0F, // CopyFromDRAM into [0x5008,+0x1010)
	})
	rng := rand.New(rand.NewSource(21))
	for i := range 40 {
		ops := make([]byte, 40*(i%4+1))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runSRAMOps(t, ops) })
	}
}

// TestSRAMWordwiseFallback runs the differential with the per-word
// float paths a big-endian host takes.
func TestSRAMWordwiseFallback(t *testing.T) {
	defer func(native bool) { nativeLittleEndian = native }(nativeLittleEndian)
	nativeLittleEndian = false
	rng := rand.New(rand.NewSource(22))
	for i := range 8 {
		ops := make([]byte, 160)
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runSRAMOps(t, ops) })
	}
}

// TestSRAMUnwrittenReadsAllocateNothing: every read path over a fresh
// scratchpad returns zeros without allocating a block or anything else.
func TestSRAMUnwrittenReadsAllocateNothing(t *testing.T) {
	s, d := NewSRAM(), NewDRAM()
	dst := make([]float32, 1500)
	buf := make([]byte, 3*sramBlockSize)
	allocs := testing.AllocsPerRun(10, func() {
		if s.Load8(0x1FFF) != 0 || s.Load32(0xFFE) != 0 || s.Load64(SRAMSize-8) != 0 {
			t.Fatal("a word read of an unwritten block is not zero")
		}
		s.LoadF32s(0x0FF0, dst)
		s.Read(0x2800, buf)
		CopyToDRAM(d, 0, s, 0x100, 64)
	})
	if allocs != 0 {
		t.Errorf("reading unwritten blocks allocates %v times, want 0", allocs)
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatal("LoadF32s of unwritten blocks is not zero")
		}
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("Read of unwritten blocks is not zero")
	}
	if got := s.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes = %d after reads only, want 0", got)
	}
}

// FuzzSRAM drives the block-backed-vs-flat differential from fuzzed
// bytes.
func FuzzSRAM(f *testing.F) {
	f.Add([]byte{})
	// A Write across blocks 2-4, Reset, then reads inside it.
	f.Add([]byte{5, 3, 0x80, 0x08, 0x20, 7, 0, 0, 0, 0, 8, 4, 0, 0x10, 0, 0x10, 0})
	// A Store64 straddling blocks 6/7 of the second SRAM, copied into
	// the first, then the second Reset.
	f.Add([]byte{13, 7, 0xFC, 0, 0, 6, 3, 0x10, 0x10, 0, 1, 7, 0xFC, 18, 0, 0, 0, 0})
	// A DMA leg into the second SRAM's last block, then out again.
	f.Add([]byte{20, 7, 0x10, 0x20, 0, 0x30, 0, 21, 7, 0x10, 0x20, 0, 0x40, 0x20})
	f.Fuzz(func(t *testing.T, ops []byte) { runSRAMOps(t, ops) })
}

// TestF32StagingMatchesWordwise: the one-copy bulk float accessors and
// the per-word loops kept for big-endian hosts store the same bytes and
// load the same float bits, NaN payloads, infinities and -0 included,
// in SRAM and DRAM, at unaligned offsets and across a block or page
// boundary too.
func TestF32StagingMatchesWordwise(t *testing.T) {
	defer func(native bool) { nativeLittleEndian = native }(nativeLittleEndian)
	bits := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x7F800000, 0xFF800000, // +Inf, -Inf
		0x7FC00000, 0x7FC00001, 0xFFFFFFFF, // quiet NaNs with payloads
		0x7F800001, 0xFFA5A5A5, // signalling NaNs
		0x00000001, 0x3F800000, 0xC0490FDB, // subnormal, 1, -pi
	}
	rng := rand.New(rand.NewSource(5))
	for range 64 {
		bits = append(bits, rng.Uint32())
	}
	src := make([]float32, len(bits))
	want := make([]byte, 4*len(bits))
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
		binary.LittleEndian.PutUint32(want[4*i:], b)
	}
	type memory struct {
		name        string
		store, load func(Addr, []float32)
		read        func(Addr, []byte)
	}
	for _, native := range []bool{true, false} {
		nativeLittleEndian = native
		s, d := NewSRAM(), NewDRAM()
		mems := []memory{
			{"SRAM", s.StoreF32s, s.LoadF32s, s.Read},
			{"DRAM", d.StoreF32s, d.LoadF32s, d.Read},
		}
		for _, m := range mems {
			for _, off := range []Addr{0, 1, 3, sramBlockSize - 66, dramPageSize - 131} {
				if m.name == "SRAM" && int(off)+len(want) > SRAMSize {
					continue
				}
				m.store(off, src)
				got := make([]byte, len(want))
				m.read(off, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("native %v: %s StoreF32s at %#x stored other bytes", native, m.name, off)
				}
				dec := make([]float32, len(src))
				m.load(off, dec)
				for i, b := range bits {
					if math.Float32bits(dec[i]) != b {
						t.Fatalf("native %v: %s LoadF32s at %#x: float %d = %#x, want %#x",
							native, m.name, off, i, math.Float32bits(dec[i]), b)
					}
				}
			}
		}
	}
}

// TestSRAMSizeIsPageMultiple: the scratchpad is a whole number of
// 4 KB blocks, so a naturally aligned word never straddles two and the
// word accessors' fast path covers every aligned access, and each block
// a write allocates is page aligned.
func TestSRAMSizeIsPageMultiple(t *testing.T) {
	if SRAMSize%sramBlockSize != 0 || sramBlockSize%4096 != 0 {
		t.Fatalf("%d-byte scratchpad in %d-byte blocks is not whole pages", SRAMSize, sramBlockSize)
	}
	for _, s := range NewSRAMs(3) {
		for b := range sramBlocks {
			s.Store8(Addr(b*sramBlockSize), 1)
			if p := uintptr(unsafe.Pointer(s.blocks[b])); p%4096 != 0 {
				t.Fatalf("block %d at %#x is not 4 KB aligned", b, p)
			}
		}
	}
}

// BenchmarkSRAMReset prices recycling one scratchpad after a run that
// wrote one block and after one that wrote all of them.
func BenchmarkSRAMReset(b *testing.B) {
	for _, bc := range []struct {
		name   string
		blocks int
	}{{"one-block", 1}, {"all-blocks", sramBlocks}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSRAM()
			for b.Loop() {
				for i := range bc.blocks {
					s.Store32(Addr(i*sramBlockSize), 1)
				}
				s.Reset()
			}
		})
	}
}

// BenchmarkSRAMStore32 prices the word store with its dirty mark,
// sweeping the whole scratchpad so every block boundary is crossed.
func BenchmarkSRAMStore32(b *testing.B) {
	s := NewSRAM()
	for b.Loop() {
		store32Sweep(s)
	}
	b.SetBytes(SRAMSize)
}

// store32Sweep stores every word of s. It sits outside b.Loop's body,
// whose calls the compiler never inlines, so Store32 inlines here as it
// does in a kernel.
func store32Sweep(s *SRAM) {
	for off := Addr(0); off < SRAMSize; off += 4 {
		s.Store32(off, uint32(off))
	}
}

// BenchmarkSRAMLoadF32s prices decoding a whole scratchpad of floats.
func BenchmarkSRAMLoadF32s(b *testing.B) {
	s := NewSRAM()
	dst := make([]float32, SRAMSize/4)
	for b.Loop() {
		s.LoadF32s(0, dst)
	}
	b.SetBytes(SRAMSize)
}
