package mem

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// sramBlockSize is the granule SRAM.Reset clears: a job that touches a
// few KB of a scratchpad pays for the blocks it wrote, not for 32 KB.
const sramBlockSize = 4096

// sramBlocks is the number of blocks in a scratchpad.
const sramBlocks = SRAMSize / sramBlockSize

// SRAM is one core's 32 KB scratchpad. Accessors take local byte offsets.
// All multi-byte accesses are little-endian, as on the real chip.
//
// Every write path - the stores, StoreF32s, a Bytes window and Copy's
// destination - marks the 4 KB blocks it covers dirty; reads (the loads,
// LoadF32s, View and Copy's source) never do. Reset zeroes only the
// dirty blocks, so recycling a board costs what its run wrote.
type SRAM struct {
	data [SRAMSize]byte
	// accessed counts the bytes moved through the access interface
	// (loads, stores and Bytes and View windows), feeding the energy
	// model's SRAM term. A window is charged once, at its size, when it
	// is taken - the cheapest deterministic accounting that stays off
	// the bulk-arithmetic hot paths.
	accessed uint64
	// dirty marks the blocks written since construction or the last
	// Reset.
	dirty [sramBlocks]bool
	// Pad the struct to a 4 KB multiple so the per-core scratchpads
	// carved out of one backing array (NewSRAMs) keep page-aligned data:
	// without it, the counter and dirty marks shift every later core's
	// 32 KB window off alignment and cost a measurable few percent on
	// the load/store hot path.
	_ [4096 - 8 - sramBlocks]byte
}

// NewSRAM returns a zeroed scratchpad.
func NewSRAM() *SRAM { return &SRAM{} }

// NewSRAMs returns n zeroed scratchpads carved out of one backing
// allocation - how a chip builds its per-core memories without paying
// one heap object per core.
func NewSRAMs(n int) []*SRAM {
	backing := make([]SRAM, n)
	out := make([]*SRAM, n)
	for i := range backing {
		out[i] = &backing[i]
	}
	return out
}

// Reset zeroes the scratchpad and its access statistics. Only the blocks
// written since the last Reset are cleared - the rest are still zero -
// and each run of adjacent dirty blocks is cleared in one sweep.
func (s *SRAM) Reset() {
	for i := 0; i < sramBlocks; i++ {
		if !s.dirty[i] {
			continue
		}
		j := i + 1
		for j < sramBlocks && s.dirty[j] {
			j++
		}
		clear(s.data[i*sramBlockSize : j*sramBlockSize])
		clear(s.dirty[i:j])
		i = j
	}
	s.accessed = 0
}

// AccessedBytes returns the bytes moved through the scratchpad's access
// interface since construction or Reset (the energy model's SRAM term).
func (s *SRAM) AccessedBytes() uint64 { return s.accessed }

// Bounds are enforced by the compiler's intrinsic slice checks inside
// each accessor: an out-of-range access panics with the runtime's
// index-out-of-range error, which carries the offending index.
//
// The kernels' arithmetic goes through the bulk accessors LoadF32s and
// StoreF32s: a stencil row or matmul block is decoded once, computed on
// as []float32 and stored once. Each bulk call charges what the same
// range costs word by word, and a kernel whose modelled schedule touches
// SRAM more often than it decodes (a multiply-add loads C and B and
// stores C per element) charges the difference through Charge, so
// AccessedBytes - the energy model's SRAM term - is what the per-word
// schedule moves.

// count charges an access to the energy model's byte counter.
func (s *SRAM) count(n int) { s.accessed += uint64(n) }

// Charge adds n bytes of modelled traffic to the access counter without
// moving data: a bulk kernel that reuses decoded values charges here the
// accesses its per-word schedule would have made.
func (s *SRAM) Charge(n int) { s.count(n) }

// The write paths mark dirty blocks after the data access, whose slice
// bounds check has by then proved the range lies inside the scratchpad;
// the block index is reduced modulo sramBlocks only so the compiler can
// drop a second bounds check from the store hot path.

// markWord marks the block holding a store of n <= 8 bytes at off, and
// the next block too when the store straddles into it.
func (s *SRAM) markWord(off, n Addr) {
	s.dirty[off/sramBlockSize%sramBlocks] = true
	if off%sramBlockSize > sramBlockSize-n {
		s.dirty[(off+n-1)/sramBlockSize%sramBlocks] = true
	}
}

// Bytes returns a writable slice aliasing n bytes of SRAM at off and
// marks the blocks it covers dirty. Writes through it are visible to
// subsequent reads. The caller must not grow it, and must not write
// through it after the next Reset, which would not clear that write.
func (s *SRAM) Bytes(off Addr, n int) []byte {
	b := s.View(off, n)
	for i := int(off) / sramBlockSize; i*sramBlockSize < int(off)+n; i++ {
		s.dirty[i] = true
	}
	return b
}

// View returns a slice aliasing n bytes of SRAM at off for reading. It
// charges the access counter as Bytes does but marks nothing, so the
// caller must not write through it.
func (s *SRAM) View(off Addr, n int) []byte {
	s.count(n)
	return s.data[off : int(off)+n]
}

// Load8 reads one byte.
func (s *SRAM) Load8(off Addr) uint8 { s.count(1); return s.data[off] }

// Store8 writes one byte.
func (s *SRAM) Store8(off Addr, v uint8) {
	s.count(1)
	s.data[off] = v
	s.dirty[off/sramBlockSize%sramBlocks] = true
}

// Load32 reads a 32-bit little-endian word.
func (s *SRAM) Load32(off Addr) uint32 {
	s.count(4)
	return binary.LittleEndian.Uint32(s.data[off : int(off)+4])
}

// Store32 writes a 32-bit little-endian word.
func (s *SRAM) Store32(off Addr, v uint32) {
	s.count(4)
	binary.LittleEndian.PutUint32(s.data[off:int(off)+4], v)
	s.markWord(off, 4)
}

// Load64 reads a 64-bit little-endian doubleword.
func (s *SRAM) Load64(off Addr) uint64 {
	s.count(8)
	return binary.LittleEndian.Uint64(s.data[off : int(off)+8])
}

// Store64 writes a 64-bit little-endian doubleword.
func (s *SRAM) Store64(off Addr, v uint64) {
	s.count(8)
	binary.LittleEndian.PutUint64(s.data[off:int(off)+8], v)
	s.markWord(off, 8)
}

// LoadF32 reads a single-precision float.
func (s *SRAM) LoadF32(off Addr) float32 { return math.Float32frombits(s.Load32(off)) }

// StoreF32 writes a single-precision float.
func (s *SRAM) StoreF32(off Addr, v float32) { s.Store32(off, math.Float32bits(v)) }

// LoadF32s decodes len(dst) consecutive single-precision floats starting
// at off, charging 4 bytes per float as LoadF32 does.
func (s *SRAM) LoadF32s(off Addr, dst []float32) {
	decodeF32s(dst, s.View(off, 4*len(dst)))
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does.
func (s *SRAM) StoreF32s(off Addr, src []float32) {
	encodeF32s(s.Bytes(off, 4*len(src)), src)
}

// nativeLittleEndian reports whether the host lays words out as the chip
// does. Then a float slice's memory already holds the chip's encoding,
// and staging floats in and out of SRAM or DRAM is one copy.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views the memory behind f as bytes.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// decodeF32s decodes len(dst) little-endian floats from the front of src.
func decodeF32s(dst []float32, src []byte) {
	if nativeLittleEndian {
		copy(f32Bytes(dst), src[:4*len(dst)])
		return
	}
	decodeF32sWordwise(dst, src)
}

// encodeF32s encodes src as little-endian floats at the front of dst.
func encodeF32s(dst []byte, src []float32) {
	if nativeLittleEndian {
		copy(dst[:4*len(src)], f32Bytes(src))
		return
	}
	encodeF32sWordwise(dst, src)
}

// decodeF32sWordwise is decodeF32s for a big-endian host: one word at a
// time, byte-swapping each.
func decodeF32sWordwise(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// encodeF32sWordwise is encodeF32s for a big-endian host.
func encodeF32sWordwise(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// Copy copies n bytes within or between scratchpads (dst and src may be
// the same SRAM; overlapping ranges copy as Go's copy does).
func Copy(dst *SRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	copy(dst.Bytes(dstOff, n), src.View(srcOff, n))
}
