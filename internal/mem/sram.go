package mem

import (
	"encoding/binary"
	"math"
)

// SRAM is one core's 32 KB scratchpad. Accessors take local byte offsets.
// All multi-byte accesses are little-endian, as on the real chip.
type SRAM struct {
	data [SRAMSize]byte
	// accessed counts the bytes moved through the access interface
	// (loads, stores and Bytes windows), feeding the energy model's
	// SRAM term. A Bytes window is charged once, at its size, when it is
	// taken - the cheapest deterministic accounting that stays off the
	// bulk-arithmetic hot paths.
	accessed uint64
	// Pad the struct to a 4 KB multiple so the per-core scratchpads
	// carved out of one backing array (NewSRAMs) keep page-aligned data:
	// without it, adding the 8-byte counter shifts every later core's
	// 32 KB window off alignment and costs a measurable few percent on
	// the load/store hot path.
	_ [4096 - 8]byte
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

// Reset zeroes the scratchpad and its access statistics.
func (s *SRAM) Reset() {
	clear(s.data[:])
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

// Bytes returns a slice aliasing n bytes of SRAM at off. The caller must
// not grow it; writes through it are visible to subsequent reads.
func (s *SRAM) Bytes(off Addr, n int) []byte {
	s.count(n)
	return s.data[off : int(off)+n]
}

// Load8 reads one byte.
func (s *SRAM) Load8(off Addr) uint8 { s.count(1); return s.data[off] }

// Store8 writes one byte.
func (s *SRAM) Store8(off Addr, v uint8) { s.count(1); s.data[off] = v }

// Load32 reads a 32-bit little-endian word.
func (s *SRAM) Load32(off Addr) uint32 {
	s.count(4)
	return binary.LittleEndian.Uint32(s.data[off : int(off)+4])
}

// Store32 writes a 32-bit little-endian word.
func (s *SRAM) Store32(off Addr, v uint32) {
	s.count(4)
	binary.LittleEndian.PutUint32(s.data[off:int(off)+4], v)
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
}

// LoadF32 reads a single-precision float.
func (s *SRAM) LoadF32(off Addr) float32 { return math.Float32frombits(s.Load32(off)) }

// StoreF32 writes a single-precision float.
func (s *SRAM) StoreF32(off Addr, v float32) { s.Store32(off, math.Float32bits(v)) }

// LoadF32s decodes len(dst) consecutive single-precision floats starting
// at off, charging 4 bytes per float as LoadF32 does.
func (s *SRAM) LoadF32s(off Addr, dst []float32) {
	decodeF32s(dst, s.Bytes(off, 4*len(dst)))
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does.
func (s *SRAM) StoreF32s(off Addr, src []float32) {
	encodeF32s(s.Bytes(off, 4*len(src)), src)
}

// decodeF32s decodes len(dst) little-endian floats from the front of src.
func decodeF32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// encodeF32s encodes src as little-endian floats at the front of dst.
func encodeF32s(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// Copy copies n bytes within or between scratchpads (dst and src may be
// the same SRAM; overlapping ranges copy as Go's copy does).
func Copy(dst *SRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	copy(dst.Bytes(dstOff, n), src.Bytes(srcOff, n))
}
