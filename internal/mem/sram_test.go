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

// sramRef is the differential reference for the dirty-block scratchpad:
// a flat 32 KB array that Reset zeroes whole, and the access counter.
type sramRef struct {
	data     [SRAMSize]byte
	accessed uint64
}

var zeroBlock [sramBlockSize]byte

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

// runSRAMOps interprets ops against two scratchpads carved out of one
// backing array (Copy moves data within and between them) and their flat
// references. After every operation it compares every byte and
// AccessedBytes of both, checks that every block holding a nonzero byte
// is marked dirty, and that a read marked nothing.
func runSRAMOps(t *testing.T, ops []byte) {
	srams := NewSRAMs(2)
	refs := [2]*sramRef{new(sramRef), new(sramRef)}
	st := &opStream{ops}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	for step := 0; len(st.b) > 0 && step < 64; step++ {
		op := st.byte()
		kind, i := op%9, op/9%2
		s, r := srams[i], refs[i]
		off := st.sramOffset()
		n := st.sramLength(off)
		where := fmt.Sprintf("step %d (op %d on SRAM %d, [%#x,+%d))", step, kind, i, off, n)
		// word clamps a w-byte access at off inside the scratchpad.
		word := func(w int) Addr {
			off = min(off, SRAMSize-w)
			r.accessed += uint64(w)
			return Addr(off)
		}
		before := [2][sramBlocks]bool{srams[0].dirty, srams[1].dirty}
		reads := false
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
			r.accessed += uint64(4 * len(src))
		case 4:
			reads = true
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
		case 5: // a Bytes window written through
			w := s.Bytes(Addr(off), n)
			rng.Read(w)
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
			s.Reset()
			*r = sramRef{}
			if s.dirty != [sramBlocks]bool{} {
				t.Fatalf("%s: Reset left blocks %v marked", where, s.dirty)
			}
		case 8: // the word loads and a View window
			reads = true
			if a := word(1); s.Load8(a) != r.data[a] {
				t.Fatalf("%s: Load8 = %#x, flat scratchpad %#x", where, s.Load8(a), r.data[a])
			}
			if a := word(4); s.Load32(a) != binary.LittleEndian.Uint32(r.data[a:]) {
				t.Fatalf("%s: Load32 at %#x differs from the flat scratchpad", where, a)
			}
			if a := word(8); s.Load64(a) != binary.LittleEndian.Uint64(r.data[a:]) {
				t.Fatalf("%s: Load64 at %#x differs from the flat scratchpad", where, a)
			}
			if !bytes.Equal(s.View(Addr(off), n), r.data[off:off+n]) {
				t.Fatalf("%s: View differs from the flat scratchpad", where)
			}
			r.accessed += uint64(n)
		}
		for k, s := range srams {
			r := refs[k]
			if !bytes.Equal(s.data[:], r.data[:]) {
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
			}
			if reads && s.dirty != before[k] {
				t.Fatalf("%s: a read marked SRAM %d's blocks %v, was %v", where, k, s.dirty, before[k])
			}
		}
	}
}

// TestSRAMDirtyDifferential runs seeded random operation sequences -
// every write and read path, aligned and not, inside and across block
// boundaries, with Resets between - against a flat scratchpad that
// Reset zeroes whole.
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
		8, 1, 0xFE, 0x10, 0, // loads and a View at 0xFFE
		4, 1, 0xF0, 0x40, 0, // LoadF32s of 16 floats at 0xFF0
		8, 8, 0xF0, 0x20, 0, // loads and a View at 0x7FF0
	})
	rng := rand.New(rand.NewSource(21))
	for i := range 40 {
		ops := make([]byte, 40*(i%4+1))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runSRAMOps(t, ops) })
	}
}

// FuzzSRAM drives the dirty-block-vs-flat differential from fuzzed
// bytes.
func FuzzSRAM(f *testing.F) {
	f.Add([]byte{})
	// A Bytes window across blocks 2-4, Reset, then reads inside it.
	f.Add([]byte{5, 3, 0x80, 0x08, 0x20, 7, 0, 0, 0, 0, 8, 4, 0, 0x10, 0})
	// A Store64 straddling blocks 6/7 of the second SRAM, copied into
	// the first, then the second Reset.
	f.Add([]byte{11, 7, 0xFC, 0, 0, 6, 3, 0x10, 0x10, 0, 1, 7, 0xFC, 16, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runSRAMOps(t, ops) })
}

// TestF32StagingMatchesWordwise: the one-copy staging and the per-word
// loops kept for big-endian hosts produce the same bytes and the same
// float bits, NaN payloads, infinities and -0 included, at unaligned
// byte offsets too.
func TestF32StagingMatchesWordwise(t *testing.T) {
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
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
	}
	for _, skew := range []int{0, 1, 3} {
		enc, encWords := make([]byte, skew+4*len(src)), make([]byte, skew+4*len(src))
		encodeF32s(enc[skew:], src)
		encodeF32sWordwise(encWords[skew:], src)
		for i, b := range bits {
			if got := binary.LittleEndian.Uint32(enc[skew+4*i:]); got != b {
				t.Fatalf("skew %d: encodeF32s word %d = %#x, want %#x", skew, i, got, b)
			}
		}
		if !bytes.Equal(enc, encWords) {
			t.Fatalf("skew %d: encodeF32s and encodeF32sWordwise bytes differ", skew)
		}
		dec, decWords := make([]float32, len(src)), make([]float32, len(src))
		decodeF32s(dec, enc[skew:])
		decodeF32sWordwise(decWords, enc[skew:])
		for i, b := range bits {
			if math.Float32bits(dec[i]) != b || math.Float32bits(decWords[i]) != b {
				t.Fatalf("skew %d: float %d decoded %#x (one copy) and %#x (per word), want %#x",
					skew, i, math.Float32bits(dec[i]), math.Float32bits(decWords[i]), b)
			}
		}
	}
}

// TestSRAMSizeIsPageMultiple: NewSRAMs carves the per-core scratchpads
// out of one array, and every one's data stays 4 KB aligned only while
// the struct, counter and dirty marks included, is a whole number of
// pages.
func TestSRAMSizeIsPageMultiple(t *testing.T) {
	if size := unsafe.Sizeof(SRAM{}); size%4096 != 0 {
		t.Fatalf("unsafe.Sizeof(SRAM{}) = %d, not a multiple of 4096", size)
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
