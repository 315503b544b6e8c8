package mem

import (
	"encoding/binary"
	"fmt"
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
	src := s.Bytes(off, 4*len(dst))
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does.
func (s *SRAM) StoreF32s(off Addr, src []float32) {
	dst := s.Bytes(off, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// Copy copies n bytes within or between scratchpads (dst and src may be
// the same SRAM; overlapping ranges copy as Go's copy does).
func Copy(dst *SRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	copy(dst.Bytes(dstOff, n), src.Bytes(srcOff, n))
}

// DRAM is the shared off-chip memory window.
type DRAM struct {
	data []byte
	// hi is the dirty high-water mark: one past the highest byte any
	// accessor has ever exposed, so Reset zeroes only that prefix
	// instead of the whole 32 MB window. It never retreats - even
	// across Resets - so a write through a Bytes alias retained from an
	// earlier run still lands inside the cleared prefix.
	hi int
	// accessed counts bytes moved through the access interface, as
	// SRAM.accessed does; it feeds the energy model's DRAM term and is
	// cleared by Reset.
	accessed uint64
}

// NewDRAM allocates the 32 MB shared window.
func NewDRAM() *DRAM { return &DRAM{data: make([]byte, DRAMSize)} }

// check bounds-checks an access with a formatted panic, advances the
// dirty watermark and charges the access counter. Unlike the SRAM
// accessors, the DRAM path keeps a bespoke pre-check: it needs the
// watermark bookkeeping anyway and sits behind the eLink/DMA models,
// never on a per-element kernel hot path.
func (d *DRAM) check(off Addr, n int) {
	if int(off)+n > len(d.data) {
		panic(fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window",
			off, int(off)+n, len(d.data)>>20))
	}
	if int(off)+n > d.hi {
		d.hi = int(off) + n
	}
	d.accessed += uint64(n)
}

// AccessedBytes returns the bytes moved through the window's access
// interface since construction or Reset (the energy model's DRAM term).
func (d *DRAM) AccessedBytes() uint64 { return d.accessed }

// Reset zeroes every byte that may ever have been written (the dirty
// watermark is conservative: reads advance it too, and it survives
// Reset so stale aliases cannot smuggle bytes past it) and clears the
// access statistics.
func (d *DRAM) Reset() {
	clear(d.data[:d.hi])
	d.accessed = 0
}

// Bytes returns a slice aliasing n bytes of DRAM at off.
func (d *DRAM) Bytes(off Addr, n int) []byte {
	d.check(off, n)
	return d.data[off : int(off)+n]
}

// Load32 reads a 32-bit little-endian word.
func (d *DRAM) Load32(off Addr) uint32 {
	d.check(off, 4)
	return binary.LittleEndian.Uint32(d.data[off:])
}

// Store32 writes a 32-bit little-endian word.
func (d *DRAM) Store32(off Addr, v uint32) {
	d.check(off, 4)
	binary.LittleEndian.PutUint32(d.data[off:], v)
}

// LoadF32 reads a single-precision float.
func (d *DRAM) LoadF32(off Addr) float32 { return math.Float32frombits(d.Load32(off)) }

// StoreF32 writes a single-precision float.
func (d *DRAM) StoreF32(off Addr, v float32) { d.Store32(off, math.Float32bits(v)) }

// Size returns the window size in bytes.
func (d *DRAM) Size() int { return len(d.data) }
