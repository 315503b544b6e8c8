package mem

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// sramBlockSize is the granule a scratchpad is allocated and reset in:
// a job that touches a few KB of a scratchpad pays for the blocks it
// wrote, not for 32 KB.
const sramBlockSize = 4096

// sramBlocks is the number of blocks in a scratchpad.
const sramBlocks = SRAMSize / sramBlockSize

// sramBlock is one 4 KB block of scratchpad.
type sramBlock = [sramBlockSize]byte

// zeroBlock backs every block no write has reached yet. Reads through
// it see zeros; no write path ever writes to it.
var zeroBlock sramBlock

// SRAM is one core's 32 KB scratchpad. Accessors take local byte offsets.
// All multi-byte accesses are little-endian, as on the real chip.
//
// The scratchpad is held as eight 4 KB blocks, the way DRAM holds its
// 64 KB pages. A block is allocated on its first write; a block that
// was never written reads as zeros and allocates nothing. Bytes move in
// and out only through the accessors - the word loads and stores,
// Read and Write, LoadF32s and StoreF32s, Copy and the DRAM legs - so
// no caller holds an alias into the scratchpad, and every write marks
// the blocks it covers dirty. Reset zeroes only the dirty blocks and
// keeps them allocated, so recycling a board costs what its run wrote
// and a warm board allocates nothing per run.
type SRAM struct {
	// blocks holds the scratchpad's blocks in address order; a block
	// is &zeroBlock until its first write allocates it.
	blocks [sramBlocks]*sramBlock
	// dirty marks the blocks written since construction or the last
	// Reset.
	dirty [sramBlocks]bool
	// accessed counts the bytes moved through the access interface,
	// feeding the energy model's SRAM term.
	accessed uint64
}

// NewSRAM returns a zeroed scratchpad with no block allocated.
func NewSRAM() *SRAM {
	s := new(SRAM)
	s.init()
	return s
}

// NewSRAMs returns n zeroed scratchpads carved out of one backing
// allocation - how a chip builds its per-core memories without paying
// one heap object per core. No block is allocated until it is written.
func NewSRAMs(n int) []*SRAM {
	backing := make([]SRAM, n)
	out := make([]*SRAM, n)
	for i := range backing {
		backing[i].init()
		out[i] = &backing[i]
	}
	return out
}

// init points every block at the shared zero block.
func (s *SRAM) init() {
	for i := range s.blocks {
		s.blocks[i] = &zeroBlock
	}
}

// Reset zeroes the scratchpad and its access statistics. Only the blocks
// written since the last Reset are cleared - the rest are still zero -
// and they stay allocated for the next run.
func (s *SRAM) Reset() {
	for i, d := range s.dirty {
		if d {
			clear(s.blocks[i][:])
			s.dirty[i] = false
		}
	}
	s.accessed = 0
}

// AccessedBytes returns the bytes moved through the scratchpad's access
// interface since construction or Reset (the energy model's SRAM term).
func (s *SRAM) AccessedBytes() uint64 { return s.accessed }

// AllocatedBytes returns the bytes of the blocks allocated so far: what
// the scratchpad holds on the heap beyond its fixed header.
func (s *SRAM) AllocatedBytes() int {
	n := 0
	for _, b := range s.blocks {
		if b != &zeroBlock {
			n += sramBlockSize
		}
	}
	return n
}

// An out-of-range access panics with the runtime's index-out-of-range
// error from the block table (index sramBlocks or more).
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

// writable returns block i for writing, marked dirty for the next Reset.
func (s *SRAM) writable(i Addr) *sramBlock {
	if !s.dirty[i] {
		s.claim(i)
	}
	return s.blocks[i]
}

// claim marks block i dirty, allocating it on its first write. It stays
// out of line so the stores that inline keep their fast path small.
//
//go:noinline
func (s *SRAM) claim(i Addr) {
	if s.blocks[i] == &zeroBlock {
		s.blocks[i] = new(sramBlock)
	}
	s.dirty[i] = true
}

// read copies the scratchpad at off into dst, block by block, without
// charging the access counter.
func (s *SRAM) read(off Addr, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, s.blocks[off/sramBlockSize][off%sramBlockSize:])
		dst, off = dst[n:], off+Addr(n)
	}
}

// write copies src into the scratchpad at off, block by block, without
// charging the access counter.
func (s *SRAM) write(off Addr, src []byte) {
	for len(src) > 0 {
		n := copy(s.writable(off / sramBlockSize)[off%sramBlockSize:], src)
		src, off = src[n:], off+Addr(n)
	}
}

// Read copies len(dst) bytes of the scratchpad at off into dst.
func (s *SRAM) Read(off Addr, dst []byte) {
	s.count(len(dst))
	s.read(off, dst)
}

// Write copies src into the scratchpad at off.
func (s *SRAM) Write(off Addr, src []byte) {
	s.count(len(src))
	s.write(off, src)
}

// The word accessors take a fast path when the word lies inside one
// block, which every aligned access does, and a store also needs the
// block already dirty. Anything else - a word straddling two blocks,
// or the first write to a block since Reset - goes out of line through
// read or write.

// Load8 reads one byte.
func (s *SRAM) Load8(off Addr) uint8 {
	s.count(1)
	return s.blocks[off/sramBlockSize][off%sramBlockSize]
}

// Store8 writes one byte.
func (s *SRAM) Store8(off Addr, v uint8) {
	s.count(1)
	if i := off / sramBlockSize; s.dirty[i] {
		s.blocks[i][off%sramBlockSize] = v
		return
	}
	s.storeSlow(off, uint64(v), 1)
}

// Load32 reads a 32-bit little-endian word.
func (s *SRAM) Load32(off Addr) uint32 {
	s.count(4)
	if o := off % sramBlockSize; o <= sramBlockSize-4 {
		return binary.LittleEndian.Uint32(s.blocks[off/sramBlockSize][o : o+4])
	}
	return uint32(s.loadSlow(off, 4))
}

// Store32 writes a 32-bit little-endian word.
func (s *SRAM) Store32(off Addr, v uint32) {
	s.count(4)
	if i, o := off/sramBlockSize, off%sramBlockSize; o <= sramBlockSize-4 && s.dirty[i] {
		binary.LittleEndian.PutUint32(s.blocks[i][o:o+4], v)
		return
	}
	s.storeSlow(off, uint64(v), 4)
}

// Load64 reads a 64-bit little-endian doubleword.
func (s *SRAM) Load64(off Addr) uint64 {
	s.count(8)
	if o := off % sramBlockSize; o <= sramBlockSize-8 {
		return binary.LittleEndian.Uint64(s.blocks[off/sramBlockSize][o : o+8])
	}
	return s.loadSlow(off, 8)
}

// Store64 writes a 64-bit little-endian doubleword.
func (s *SRAM) Store64(off Addr, v uint64) {
	s.count(8)
	if i, o := off/sramBlockSize, off%sramBlockSize; o <= sramBlockSize-8 && s.dirty[i] {
		binary.LittleEndian.PutUint64(s.blocks[i][o:o+8], v)
		return
	}
	s.storeSlow(off, v, 8)
}

// loadSlow reads the n-byte little-endian word at off byte by byte
// through read, for a word straddling two blocks.
//
//go:noinline
func (s *SRAM) loadSlow(off Addr, n int) uint64 {
	var b [8]byte
	s.read(off, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

// storeSlow writes the low n bytes of v little-endian at off through
// write, which claims the blocks the word covers.
//
//go:noinline
func (s *SRAM) storeSlow(off Addr, v uint64, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.write(off, b[:n])
}

// LoadF32 reads a single-precision float.
func (s *SRAM) LoadF32(off Addr) float32 { return math.Float32frombits(s.Load32(off)) }

// StoreF32 writes a single-precision float.
func (s *SRAM) StoreF32(off Addr, v float32) { s.Store32(off, math.Float32bits(v)) }

// LoadF32s decodes len(dst) consecutive single-precision floats starting
// at off, charging 4 bytes per float as LoadF32 does.
func (s *SRAM) LoadF32s(off Addr, dst []float32) {
	s.count(4 * len(dst))
	loadF32s(s.read, off, dst)
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does.
func (s *SRAM) StoreF32s(off Addr, src []float32) {
	s.count(4 * len(src))
	storeF32s(s.write, off, src)
}

// nativeLittleEndian reports whether the host lays words out as the chip
// does. Then a float slice's memory already holds the chip's encoding,
// and staging floats in and out of SRAM or DRAM is one copy.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views the memory behind f as bytes.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// loadF32s decodes len(dst) little-endian floats at off of a memory
// that read copies out of, the bulk float load of SRAM and DRAM alike:
// on a little-endian host read fills dst's memory directly, otherwise
// the floats are read and byte-swapped one word at a time.
func loadF32s(read func(Addr, []byte), off Addr, dst []float32) {
	if nativeLittleEndian {
		read(off, f32Bytes(dst))
		return
	}
	var b [4]byte
	for i := range dst {
		read(off+Addr(4*i), b[:])
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
}

// storeF32s encodes src as little-endian floats at off of a memory that
// write copies into, as loadF32s decodes them.
func storeF32s(write func(Addr, []byte), off Addr, src []float32) {
	if nativeLittleEndian {
		write(off, f32Bytes(src))
		return
	}
	var b [4]byte
	for i, v := range src {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		write(off+Addr(4*i), b[:])
	}
}

// Copy copies n bytes within or between scratchpads (dst and src may be
// the same SRAM; overlapping ranges copy as Go's copy does), charging n
// bytes to each. It moves the bytes block by block; a copy onto a later
// part of its own range runs back to front.
func Copy(dst *SRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	dst.count(n)
	src.count(n)
	if dst == src && srcOff < dstOff && int(dstOff) < int(srcOff)+n {
		for n > 0 {
			se, de := srcOff+Addr(n), dstOff+Addr(n)
			k := min(n, int((se-1)%sramBlockSize)+1, int((de-1)%sramBlockSize)+1)
			se, de = se-Addr(k), de-Addr(k)
			d := dst.writable(de / sramBlockSize)
			copy(d[de%sramBlockSize:][:k], src.blocks[se/sramBlockSize][se%sramBlockSize:])
			n -= k
		}
		return
	}
	for n > 0 {
		k := min(n, sramBlockSize-int(srcOff%sramBlockSize), sramBlockSize-int(dstOff%sramBlockSize))
		d := dst.writable(dstOff / sramBlockSize)
		copy(d[dstOff%sramBlockSize:][:k], src.blocks[srcOff/sramBlockSize][srcOff%sramBlockSize:])
		srcOff, dstOff, n = srcOff+Addr(k), dstOff+Addr(k), n-k
	}
}

// CopyToDRAM copies n bytes of the scratchpad src at srcOff into the
// window dst at dstOff - a DMA leg from a core to shared memory -
// charging n bytes to each, as a Read and a Write would.
func CopyToDRAM(dst *DRAM, dstOff Addr, src *SRAM, srcOff Addr, n int) {
	src.count(n)
	dst.check(dstOff, n)
	for n > 0 {
		k := min(n, sramBlockSize-int(srcOff%sramBlockSize))
		dst.write(dstOff, src.blocks[srcOff/sramBlockSize][srcOff%sramBlockSize:][:k])
		srcOff, dstOff, n = srcOff+Addr(k), dstOff+Addr(k), n-k
	}
}

// CopyFromDRAM copies n bytes of the window src at srcOff into the
// scratchpad dst at dstOff - a DMA leg from shared memory to a core -
// charging n bytes to each, as a Read and a Write would.
func CopyFromDRAM(dst *SRAM, dstOff Addr, src *DRAM, srcOff Addr, n int) {
	src.check(srcOff, n)
	dst.count(n)
	for n > 0 {
		k := min(n, sramBlockSize-int(dstOff%sramBlockSize))
		src.read(srcOff, dst.writable(dstOff / sramBlockSize)[dstOff%sramBlockSize:][:k])
		srcOff, dstOff, n = srcOff+Addr(k), dstOff+Addr(k), n-k
	}
}
