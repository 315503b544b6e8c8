package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// dramPageSize is the granule the shared window is allocated in. A board
// pays for the pages its programs write (a paper-e64 op moves about
// 0.16 MB through the window), not for the whole 32 MB.
const dramPageSize = 64 * 1024

// dramPages is the number of pages in the window.
const dramPages = DRAMSize / dramPageSize

// DRAM is the shared off-chip memory window, held as a fixed table of
// 64 KB pages. A page is allocated on its first write; reading a page
// that was never written yields zeros and allocates nothing. Bytes move
// in and out only by copying (Read, Write and the word and float
// accessors): no caller holds an alias into the window, so every write
// is one Reset sees.
type DRAM struct {
	pages [dramPages]*[dramPageSize]byte
	// dirty marks the pages written since construction or the last
	// Reset. Reset zeroes exactly those and keeps them allocated, so a
	// pooled board reuses its pages without allocating per run.
	dirty [dramPages]bool
	// accessed counts bytes moved through the access interface, as
	// SRAM.accessed does; it feeds the energy model's DRAM term and is
	// cleared by Reset.
	accessed uint64
}

// NewDRAM returns a zeroed 32 MB shared window with no page allocated.
func NewDRAM() *DRAM { return &DRAM{} }

// check bounds-checks an access with a formatted panic and charges the
// access counter. Unlike the SRAM accessors, the DRAM path keeps a
// bespoke pre-check: an access may span pages, and the DRAM sits behind
// the eLink/DMA models, never on a per-element kernel hot path.
func (d *DRAM) check(off Addr, n int) {
	if int(off)+n > DRAMSize {
		panic(fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window",
			off, int(off)+n, DRAMSize>>20))
	}
	d.accessed += uint64(n)
}

// page returns page i for writing: allocated on first use and marked
// dirty for the next Reset.
func (d *DRAM) page(i int) *[dramPageSize]byte {
	p := d.pages[i]
	if p == nil {
		p = new([dramPageSize]byte)
		d.pages[i] = p
	}
	d.dirty[i] = true
	return p
}

// read copies the window at off into dst, page by page; a page never
// written reads as zeros.
func (d *DRAM) read(off Addr, dst []byte) {
	for len(dst) > 0 {
		i, o := int(off/dramPageSize), int(off%dramPageSize)
		n := min(len(dst), dramPageSize-o)
		if p := d.pages[i]; p != nil {
			copy(dst[:n], p[o:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+Addr(n)
	}
}

// write copies src into the window at off, page by page.
func (d *DRAM) write(off Addr, src []byte) {
	for len(src) > 0 {
		i, o := int(off/dramPageSize), int(off%dramPageSize)
		n := copy(d.page(i)[o:], src)
		src, off = src[n:], off+Addr(n)
	}
}

// AccessedBytes returns the bytes moved through the window's access
// interface since construction or Reset (the energy model's DRAM term).
func (d *DRAM) AccessedBytes() uint64 { return d.accessed }

// Reset zeroes every page written since the last Reset, keeping it
// allocated, and clears the access statistics.
func (d *DRAM) Reset() {
	for i := range d.dirty {
		if d.dirty[i] {
			clear(d.pages[i][:])
			d.dirty[i] = false
		}
	}
	d.accessed = 0
}

// Read copies len(dst) bytes of the window at off into dst.
func (d *DRAM) Read(off Addr, dst []byte) {
	d.check(off, len(dst))
	d.read(off, dst)
}

// Write copies src into the window at off.
func (d *DRAM) Write(off Addr, src []byte) {
	d.check(off, len(src))
	d.write(off, src)
}

// Load32 reads a 32-bit little-endian word.
func (d *DRAM) Load32(off Addr) uint32 {
	var b [4]byte
	d.Read(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Store32 writes a 32-bit little-endian word.
func (d *DRAM) Store32(off Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Write(off, b[:])
}

// LoadF32 reads a single-precision float.
func (d *DRAM) LoadF32(off Addr) float32 { return math.Float32frombits(d.Load32(off)) }

// StoreF32 writes a single-precision float.
func (d *DRAM) StoreF32(off Addr, v float32) { d.Store32(off, math.Float32bits(v)) }

// LoadF32s decodes len(dst) consecutive single-precision floats starting
// at off, charging 4 bytes per float as LoadF32 does.
func (d *DRAM) LoadF32s(off Addr, dst []float32) {
	d.check(off, 4*len(dst))
	for len(dst) > 0 {
		i, o := int(off/dramPageSize), int(off%dramPageSize)
		n := min(len(dst), (dramPageSize-o)/4)
		switch p := d.pages[i]; {
		case n == 0: // an unaligned float straddling two pages
			var b [4]byte
			d.read(off, b[:])
			dst[0], n = math.Float32frombits(binary.LittleEndian.Uint32(b[:])), 1
		case p == nil:
			clear(dst[:n])
		default:
			decodeF32s(dst[:n], p[o:])
		}
		dst, off = dst[n:], off+Addr(4*n)
	}
}

// StoreF32s encodes src as consecutive single-precision floats starting
// at off, charging 4 bytes per float as StoreF32 does.
func (d *DRAM) StoreF32s(off Addr, src []float32) {
	d.check(off, 4*len(src))
	for len(src) > 0 {
		i, o := int(off/dramPageSize), int(off%dramPageSize)
		n := min(len(src), (dramPageSize-o)/4)
		if n == 0 { // an unaligned float straddling two pages
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(src[0]))
			d.write(off, b[:])
			n = 1
		} else {
			encodeF32s(d.page(i)[o:], src[:n])
		}
		src, off = src[n:], off+Addr(4*n)
	}
}

// Size returns the window size in bytes.
func (d *DRAM) Size() int { return DRAMSize }
