package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// blockSize is the granule a memory is allocated and reset in: a job
// that touches a few KB of a scratchpad or of the shared window pays
// for the blocks it wrote, not for 32 KB or 32 MB.
const blockSize = 4096

// sramBlocks and dramBlocks are the numbers of blocks in a scratchpad
// and in the shared window.
const (
	sramBlocks = SRAMSize / blockSize
	dramBlocks = DRAMSize / blockSize
)

// block is one 4 KB block of memory.
type block = [blockSize]byte

// zeroBlock backs every block no write has reached since construction
// or the last Reset. Reads through it see zeros; no write path ever
// writes to it.
var zeroBlock block

// Memory is one of the board's byte-addressed stores: a core's 32 KB
// scratchpad (NewSRAM) or the 32 MB shared DRAM window (NewDRAM). The
// two differ only in size; the path that reaches each, mesh or eLink,
// is timed by the noc and dma packages. Accessors take byte offsets
// into the memory, and all multi-byte accesses are little-endian, as on
// the real chip.
//
// A memory is held as 4 KB blocks. A block is allocated on its first
// write; a block that was never written reads as zeros and allocates
// nothing. Bytes move in and out only through the accessors - the word
// loads and stores, Read and Write, LoadF32s and StoreF32s, and Copy -
// so no caller holds an alias into a memory, and every write is one
// Reset sees. Reset zeroes only the blocks written since the last Reset
// and keeps them for later writes, so recycling a board costs what its
// run wrote and a warm board allocates nothing per run.
//
// An access that leaves the memory panics naming the range, before it
// moves or charges anything.
type Memory struct {
	// blocks holds the memory's blocks in address order. An entry is
	// &zeroBlock until a write since construction or the last Reset
	// gives it a block of its own.
	blocks []*block
	// written lists, in order, the entries given a block since
	// construction or the last Reset: what Reset has to clear.
	written []int32
	// spare holds the zeroed blocks Reset took back, for later writes.
	spare []*block
	// accessed counts the bytes moved through the access interface,
	// feeding the energy model's SRAM or DRAM term.
	accessed uint64
}

// NewSRAM returns a zeroed 32 KB scratchpad with no block allocated.
func NewSRAM() *Memory { return NewSRAMs(1)[0] }

// NewSRAMs returns n zeroed scratchpads carved out of one backing
// allocation - how a chip builds its per-core memories without paying
// a few heap objects per core. No block is allocated until it is
// written.
func NewSRAMs(n int) []*Memory {
	backing := make([]Memory, n)
	tables := newTable(n * sramBlocks)
	written := make([]int32, n*sramBlocks)
	out := make([]*Memory, n)
	for i := range backing {
		lo, hi := i*sramBlocks, (i+1)*sramBlocks
		backing[i].blocks = tables[lo:hi:hi]
		backing[i].written = written[lo:lo:hi]
		out[i] = &backing[i]
	}
	return out
}

// NewDRAM returns a zeroed 32 MB shared window with no block allocated.
func NewDRAM() *Memory { return &Memory{blocks: newTable(dramBlocks)} }

// newTable returns n block entries, each the shared zero block.
func newTable(n int) []*block {
	t := make([]*block, n)
	for i := range t {
		t[i] = &zeroBlock
	}
	return t
}

// Reset zeroes the memory and its access statistics. Only the blocks
// written since the last Reset are cleared - the rest are still zero -
// and they are kept for the writes of the next run.
func (m *Memory) Reset() {
	for _, i := range m.written {
		b := m.blocks[i]
		clear(b[:])
		m.blocks[i] = &zeroBlock
		m.spare = append(m.spare, b)
	}
	m.written = m.written[:0]
	m.accessed = 0
}

// AccessedBytes returns the bytes moved through the memory's access
// interface since construction or Reset (the energy model's SRAM or
// DRAM term).
func (m *Memory) AccessedBytes() uint64 { return m.accessed }

// AllocatedBytes returns the bytes of the blocks allocated so far: what
// the memory holds on the heap beyond its block table.
func (m *Memory) AllocatedBytes() int { return (len(m.written) + len(m.spare)) * blockSize }

// The kernels' arithmetic goes through the bulk accessors LoadF32s and
// StoreF32s: a stencil row or matmul block is decoded once, computed on
// as []float32 and stored once. Each bulk call charges what the same
// range costs word by word, and a kernel whose modelled schedule touches
// SRAM more often than it decodes (a multiply-add loads C and B and
// stores C per element) charges the difference through Charge, so
// AccessedBytes - the energy model's SRAM term - is what the per-word
// schedule moves.

// Charge adds n bytes of modelled traffic to the access counter without
// moving data: a bulk kernel that reuses decoded values charges here the
// accesses its per-word schedule would have made.
func (m *Memory) Charge(n int) { m.accessed += uint64(n) }

// size returns the memory's size in bytes.
func (m *Memory) size() int { return len(m.blocks) * blockSize }

// check panics unless [off, off+n) lies inside the memory.
func (m *Memory) check(off Addr, n int) {
	if int(off)+n > m.size() {
		m.outOfRange(off, n)
	}
}

// outOfRange panics for an access to [off, off+n) past the memory's end.
func (m *Memory) outOfRange(off Addr, n int) {
	end := int(off) + n
	if m.size() == DRAMSize {
		panic(fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window", off, end, DRAMSize>>20))
	}
	panic(fmt.Sprintf("mem: SRAM access [%#x,%#x) beyond %d KB scratchpad", off, end, SRAMSize>>10))
}

// access checks [off, off+n) and charges its n bytes to the access
// counter.
func (m *Memory) access(off Addr, n int) {
	m.check(off, n)
	m.accessed += uint64(n)
}

// writable returns block i for writing, claiming it if no write has
// reached it since the last Reset.
func (m *Memory) writable(i Addr) *block {
	if b := m.blocks[i]; b != &zeroBlock {
		return b
	}
	return m.claim(i)
}

// claim gives entry i a zeroed block of its own - a spare one Reset
// took back, or a new one - and lists it for the next Reset.
func (m *Memory) claim(i Addr) *block {
	var b *block
	if k := len(m.spare); k > 0 {
		b = m.spare[k-1]
		m.spare = m.spare[:k-1]
	} else {
		b = new(block)
	}
	m.blocks[i] = b
	m.written = append(m.written, int32(i))
	return b
}

// read copies the memory at off into dst, block by block, without
// checking or charging.
func (m *Memory) read(off Addr, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, m.blocks[off/blockSize][off%blockSize:])
		dst, off = dst[n:], off+Addr(n)
	}
}

// write copies src into the memory at off, block by block, without
// checking or charging.
func (m *Memory) write(off Addr, src []byte) {
	for len(src) > 0 {
		n := copy(m.writable(off / blockSize)[off%blockSize:], src)
		src, off = src[n:], off+Addr(n)
	}
}

// Read copies len(dst) bytes of the memory at off into dst.
func (m *Memory) Read(off Addr, dst []byte) {
	m.access(off, len(dst))
	m.read(off, dst)
}

// Write copies src into the memory at off.
func (m *Memory) Write(off Addr, src []byte) {
	m.access(off, len(src))
	m.write(off, src)
}

// The word accessors take a fast path when the word lies inside one
// block of the memory, which every aligned access does, and a store
// also needs the block already written since Reset. Anything else - a
// word straddling two blocks, the first write to a block, or an access
// past the end - goes out of line through Read or Write.

// Load8 reads one byte.
func (m *Memory) Load8(off Addr) uint8 {
	if i := int(off / blockSize); i < len(m.blocks) {
		m.accessed++
		return m.blocks[i][off%blockSize]
	}
	return uint8(m.loadWord(off, 1))
}

// Store8 writes one byte.
func (m *Memory) Store8(off Addr, v uint8) {
	if i := int(off / blockSize); i < len(m.blocks) && m.blocks[i] != &zeroBlock {
		m.accessed++
		m.blocks[i][off%blockSize] = v
		return
	}
	m.storeWord(off, uint64(v), 1)
}

// Load32 reads a 32-bit little-endian word.
func (m *Memory) Load32(off Addr) uint32 {
	if i := int(off / blockSize); i < len(m.blocks) && off%blockSize <= blockSize-4 {
		m.accessed += 4
		return binary.LittleEndian.Uint32(m.blocks[i][off%blockSize:])
	}
	return uint32(m.loadWord(off, 4))
}

// Store32 writes a 32-bit little-endian word.
func (m *Memory) Store32(off Addr, v uint32) {
	if i := int(off / blockSize); i < len(m.blocks) && off%blockSize <= blockSize-4 && m.blocks[i] != &zeroBlock {
		m.accessed += 4
		binary.LittleEndian.PutUint32(m.blocks[i][off%blockSize:], v)
		return
	}
	m.storeWord(off, uint64(v), 4)
}

// Load64 reads a 64-bit little-endian doubleword.
func (m *Memory) Load64(off Addr) uint64 {
	if i := int(off / blockSize); i < len(m.blocks) && off%blockSize <= blockSize-8 {
		m.accessed += 8
		return binary.LittleEndian.Uint64(m.blocks[i][off%blockSize:])
	}
	return m.loadWord(off, 8)
}

// Store64 writes a 64-bit little-endian doubleword.
func (m *Memory) Store64(off Addr, v uint64) {
	if i := int(off / blockSize); i < len(m.blocks) && off%blockSize <= blockSize-8 && m.blocks[i] != &zeroBlock {
		m.accessed += 8
		binary.LittleEndian.PutUint64(m.blocks[i][off%blockSize:], v)
		return
	}
	m.storeWord(off, v, 8)
}

// loadWord reads the n-byte little-endian word at off through Read.
//
//go:noinline
func (m *Memory) loadWord(off Addr, n int) uint64 {
	var b [8]byte
	m.Read(off, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

// storeWord writes the low n bytes of v little-endian at off through
// Write, which claims the blocks the word covers.
//
//go:noinline
func (m *Memory) storeWord(off Addr, v uint64, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(off, b[:n])
}

// LoadF32 reads a single-precision float.
func (m *Memory) LoadF32(off Addr) float32 { return math.Float32frombits(m.Load32(off)) }

// StoreF32 writes a single-precision float.
func (m *Memory) StoreF32(off Addr, v float32) { m.Store32(off, math.Float32bits(v)) }

// nativeLittleEndian reports whether the host lays words out as the chip
// does. Then a float slice's memory already holds the chip's encoding,
// and staging floats in and out of a memory is one copy.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views the memory behind f as bytes.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// LoadF32s decodes len(dst) consecutive single-precision floats starting
// at off, charging 4 bytes per float as LoadF32 does. On a little-endian
// host the bytes are copied straight into dst's memory; otherwise each
// float is read and byte-swapped one word at a time.
func (m *Memory) LoadF32s(off Addr, dst []float32) {
	m.access(off, 4*len(dst))
	if nativeLittleEndian {
		m.read(off, f32Bytes(dst))
		return
	}
	var b [4]byte
	for i := range dst {
		m.read(off+Addr(4*i), b[:])
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does, as LoadF32s
// decodes them.
func (m *Memory) StoreF32s(off Addr, src []float32) {
	m.access(off, 4*len(src))
	if nativeLittleEndian {
		m.write(off, f32Bytes(src))
		return
	}
	var b [4]byte
	for i, v := range src {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		m.write(off+Addr(4*i), b[:])
	}
}

// Copy copies n bytes within or between memories - one scratchpad, two
// of them, or a scratchpad and the shared window, the legs a DMA
// transfer makes - charging n bytes to each, as a Read and a Write
// would. It moves the bytes block by block with no staging copy;
// overlapping ranges of one memory copy as Go's copy does, a copy onto a
// later part of its own range running back to front.
func Copy(dst *Memory, dstOff Addr, src *Memory, srcOff Addr, n int) {
	src.check(srcOff, n)
	dst.check(dstOff, n)
	src.accessed += uint64(n)
	dst.accessed += uint64(n)
	if dst == src && srcOff < dstOff && int(dstOff) < int(srcOff)+n {
		for n > 0 {
			se, de := srcOff+Addr(n), dstOff+Addr(n)
			k := min(n, int((se-1)%blockSize)+1, int((de-1)%blockSize)+1)
			se, de = se-Addr(k), de-Addr(k)
			d := dst.writable(de / blockSize)
			copy(d[de%blockSize:][:k], src.blocks[se/blockSize][se%blockSize:])
			n -= k
		}
		return
	}
	for n > 0 {
		k := min(n, blockSize-int(srcOff%blockSize), blockSize-int(dstOff%blockSize))
		d := dst.writable(dstOff / blockSize)
		copy(d[dstOff%blockSize:][:k], src.blocks[srcOff/blockSize][srcOff%blockSize:])
		srcOff, dstOff, n = srcOff+Addr(k), dstOff+Addr(k), n-k
	}
}
