package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dramRef is the differential reference for the paged window: the flat
// 32 MB byte array and access counter the window used to be.
type dramRef struct {
	data     []byte
	written  [dramPages]bool // pages any write landed on
	accessed uint64
}

func newDRAMRef() *dramRef { return &dramRef{data: make([]byte, DRAMSize)} }

// access reports whether [off, off+n) fits the window, charging it if so.
func (r *dramRef) access(off, n int) bool {
	if off+n > DRAMSize {
		return false
	}
	r.accessed += uint64(n)
	return true
}

func (r *dramRef) write(off int, src []byte) {
	copy(r.data[off:], src)
	for p := off / dramPageSize; p*dramPageSize < off+len(src); p++ {
		r.written[p] = true
	}
}

func (r *dramRef) reset() {
	for p, w := range r.written {
		if w {
			clear(r.data[p*dramPageSize : (p+1)*dramPageSize])
		}
	}
	r.accessed = 0
}

// opStream decodes a DRAM operation sequence from bytes, so a seeded
// generator and the fuzzer drive the same interpreter.
type opStream struct{ b []byte }

func (s *opStream) byte() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func (s *opStream) u16() int { return s.byte() | s.byte()<<8 }

// offset returns an address within 128 bytes of a page boundary among
// the first and last few pages, so operations overlap one another,
// straddle pages, start unaligned and - at the boundary one past the
// last page - run off the window's end.
func (s *opStream) offset() int {
	b := s.byte()
	page := b % 4
	if b >= 128 {
		page = dramPages - b%4
	}
	return max(0, page*dramPageSize+int(int8(s.byte())))
}

// length returns a byte count of up to two and a bit pages.
func (s *opStream) length() int { return s.u16() % (2*dramPageSize + 9) }

// mustPanicWith runs f and checks it panics with exactly want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

// runDRAMOps interprets ops against a fresh paged window and the flat
// reference, checking every result and AccessedBytes after each
// operation and the full contents at the end.
func runDRAMOps(t *testing.T, ops []byte) {
	d, ref := NewDRAM(), newDRAMRef()
	s := &opStream{ops}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	for step := 0; len(s.b) > 0 && step < 64; step++ {
		kind, off, n := s.byte()%7, s.offset(), s.length()
		if kind == 2 || kind == 3 { // word accessors
			n = 4
		}
		if kind == 4 || kind == 5 { // float runs
			n &^= 3
		}
		where := fmt.Sprintf("step %d (op %d, [%#x,+%d))", step, kind, off, n)
		if kind != 6 && !ref.access(off, n) {
			want := fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window", off, off+n, DRAMSize>>20)
			mustPanicWith(t, want, func() {
				switch kind {
				case 0:
					d.Write(Addr(off), make([]byte, n))
				case 1:
					d.Read(Addr(off), make([]byte, n))
				case 2:
					d.Store32(Addr(off), 1)
				case 3:
					d.Load32(Addr(off))
				case 4:
					d.StoreF32s(Addr(off), make([]float32, n/4))
				case 5:
					d.LoadF32s(Addr(off), make([]float32, n/4))
				}
			})
		} else {
			switch kind {
			case 0:
				src := make([]byte, n)
				rng.Read(src)
				d.Write(Addr(off), src)
				ref.write(off, src)
			case 1:
				got := bytes.Repeat([]byte{0xA5}, n) // stale bytes Read must overwrite
				d.Read(Addr(off), got)
				if !bytes.Equal(got, ref.data[off:off+n]) {
					t.Fatalf("%s: Read differs from the flat window", where)
				}
			case 2:
				v := rng.Uint32()
				d.Store32(Addr(off), v)
				ref.write(off, binary.LittleEndian.AppendUint32(nil, v))
			case 3:
				if got, want := d.Load32(Addr(off)), binary.LittleEndian.Uint32(ref.data[off:]); got != want {
					t.Fatalf("%s: Load32 = %#x, flat window %#x", where, got, want)
				}
			case 4:
				src := make([]float32, n/4)
				enc := make([]byte, n)
				for i := range src {
					bits := rng.Uint32()
					src[i] = math.Float32frombits(bits)
					binary.LittleEndian.PutUint32(enc[4*i:], bits)
				}
				d.StoreF32s(Addr(off), src)
				ref.write(off, enc)
			case 5:
				got := make([]float32, n/4)
				for i := range got {
					got[i] = math.Float32frombits(0xA5A5A5A5)
				}
				d.LoadF32s(Addr(off), got)
				for i, v := range got {
					if want := binary.LittleEndian.Uint32(ref.data[off+4*i:]); math.Float32bits(v) != want {
						t.Fatalf("%s: float %d = %#x, flat window %#x", where, i, math.Float32bits(v), want)
					}
				}
			case 6:
				d.Reset()
				ref.reset()
			}
		}
		if got, want := d.AccessedBytes(), ref.accessed; got != want {
			t.Fatalf("%s: AccessedBytes = %d, flat window %d", where, got, want)
		}
	}
	// Any page neither side wrote is zero in both; compare the rest.
	for p := range dramPages {
		want := ref.data[p*dramPageSize : (p+1)*dramPageSize]
		switch pg := d.pages[p]; {
		case pg != nil:
			if !bytes.Equal(pg[:], want) {
				t.Fatalf("page %d differs from the flat window", p)
			}
		case ref.written[p]:
			if !bytes.Equal(want, make([]byte, dramPageSize)) {
				t.Fatalf("page %d holds data the paged window never allocated", p)
			}
		}
	}
}

// TestDRAMPagedDifferential runs seeded random operation sequences -
// bulk and word, read and write, aligned and not, inside, across and
// past page boundaries, with Resets between - against the flat window.
func TestDRAMPagedDifferential(t *testing.T) {
	// Accesses ending exactly at the window's end, and one byte past it.
	runDRAMOps(t, []byte{
		2, 0x80, 0xFC, 0, 0, 3, 0x80, 0xFC, 0, 0, 0, 0x80, 0xF0, 0x10, 0, 1, 0x80, 0xE0, 0x20, 0,
		5, 0x80, 0xF8, 0x08, 0, 4, 0x80, 0xF8, 0x08, 0, 1, 0x80, 0xF0, 0x11, 0, 3, 0x80, 0xFD, 0, 0,
	})
	rng := rand.New(rand.NewSource(17))
	for i := range 40 {
		ops := make([]byte, 40*(i%4+1))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runDRAMOps(t, ops) })
	}
}

// FuzzDRAM drives the paged-vs-flat differential from fuzzed bytes.
func FuzzDRAM(f *testing.F) {
	f.Add([]byte{})
	// A write straddling pages 0 and 1 at an unaligned offset, read back
	// as bytes, words and floats, then Reset and read again.
	f.Add([]byte{0, 1, 0xFE, 0x10, 0, 1, 1, 0xFE, 0x10, 0, 3, 1, 0xFE, 0, 0,
		5, 1, 0xFD, 0x20, 0, 6, 0, 0, 0, 0, 1, 1, 0xFE, 0x10, 0})
	// A word store across the boundary into the last page, and float
	// stores running off the end of the window.
	f.Add([]byte{2, 0x81, 0xFE, 0, 0, 4, 0x80, 0xF8, 0x40, 0, 4, 0x80, 0, 0x08, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runDRAMOps(t, ops) })
}

// TestDRAMUntouchedReadsAllocateNothing: reading pages nobody wrote
// yields zeros without allocating a page or a byte.
func TestDRAMUntouchedReadsAllocateNothing(t *testing.T) {
	d := NewDRAM()
	d.Store32(0, 1) // one page in use; the reads below avoid it
	buf := make([]byte, 3*dramPageSize)
	floats := make([]float32, 1000)
	off := Addr(5*dramPageSize - 6) // unaligned, straddling pages 4-7
	allocs := testing.AllocsPerRun(20, func() {
		d.Read(off, buf)
		d.LoadF32s(off, floats)
		_ = d.Load32(off + 4)
	})
	if allocs != 0 {
		t.Fatalf("reads of untouched pages allocate %v times per run", allocs)
	}
	for p, pg := range d.pages {
		if pg != nil && p != 0 {
			t.Fatalf("reading allocated page %d", p)
		}
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("untouched pages read non-zero")
	}
}

// TestDRAMPooledResetAllocatesNothing: once a page exists, writing it
// again after Reset reuses it.
func TestDRAMPooledResetAllocatesNothing(t *testing.T) {
	d := NewDRAM()
	vals := make([]float32, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		d.StoreF32s(dramPageSize-8, vals)
		d.Reset()
	})
	if allocs != 0 {
		t.Fatalf("write+Reset on a pooled window allocates %v times per run", allocs)
	}
}
