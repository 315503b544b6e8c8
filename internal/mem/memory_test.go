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

// The differential harness drives two scratchpads carved out of one
// backing array and the shared DRAM window against flat references:
// plain byte arrays of the memories' sizes, and their access counters. One op stream, decoded from bytes so that a
// seeded generator and the fuzzer drive the same interpreter, picks a
// memory and an operation per step.

// The memories of the harness, by index.
const (
	sram0 = iota
	sram1
	dram
	numMems
)

// Operations of the harness, by op%numOps.
const (
	opStore8 = iota
	opStore32
	opStore64
	opStoreF32s
	opWrite
	opCopy // a Copy from any of the memories, a DMA-style leg between two
	opReset
	opLoadF32s
	opLoad8
	opLoad32
	opLoad64
	opRead
	numOps
)

// op encodes operation kind on memory which as its op-stream byte.
func op(kind, which int) byte { return byte(kind + numOps*which) }

// dramLow and dramHigh bound the stretches of the window the op stream
// reaches: the first blocks, and the last blocks up to the end.
const (
	dramLow  = 6 * blockSize
	dramHigh = DRAMSize - 5*blockSize
)

// opStream decodes an operation sequence from bytes.
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

// offset returns an offset into memory which within 128 bytes of a
// block boundary - any boundary of a scratchpad, the boundaries among
// the first and last four blocks of the window - so operations overlap
// one another, straddle blocks, start unaligned, end exactly at the
// memory's end and run past it.
func (s *opStream) offset(which int) int {
	b := s.byte()
	blk := b % (sramBlocks + 1)
	if which == dram {
		blk = b % 4
		if b >= 128 {
			blk = dramBlocks - b%4
		}
	}
	return max(0, blk*blockSize+int(int8(s.byte())))
}

// length returns a byte count of up to two and a bit blocks.
func (s *opStream) length() int { return s.u16() % (2*blockSize + 9) }

// memRef is the flat reference of one memory.
type memRef struct {
	data     []byte
	accessed uint64
}

// reset zeroes the reference as Reset zeroes its memory: a whole
// scratchpad, or the stretches of the window the op stream reaches.
func (r *memRef) reset() {
	if len(r.data) == SRAMSize {
		clear(r.data)
	} else {
		clear(r.data[:dramLow])
		clear(r.data[dramHigh:])
	}
	r.accessed = 0
}

// memHarness is the state the differential runs on.
type memHarness struct {
	mems [numMems]*Memory
	refs [numMems]*memRef
}

// dramRefData backs the window's reference for one harness after
// another: allocating 32 MB per input would dominate a fuzzing run.
var dramRefData []byte

func newMemHarness() *memHarness {
	srams := NewSRAMs(2)
	h := &memHarness{mems: [numMems]*Memory{srams[0], srams[1], NewDRAM()}}
	for i := range sram1 + 1 {
		h.refs[i] = &memRef{data: make([]byte, SRAMSize)}
	}
	if dramRefData == nil {
		dramRefData = make([]byte, DRAMSize)
	}
	h.refs[dram] = &memRef{data: dramRefData}
	h.refs[dram].reset()
	return h
}

// image returns the bytes of m the op stream can reach, read without
// charging: a whole scratchpad, or the two stretches of the window.
func image(m *Memory) []byte {
	if m.size() == SRAMSize {
		b := make([]byte, SRAMSize)
		m.read(0, b)
		return b
	}
	lo, hi := make([]byte, dramLow), make([]byte, DRAMSize-dramHigh)
	m.read(0, lo)
	m.read(dramHigh, hi)
	return append(lo, hi...)
}

// refImage returns the same bytes of a reference.
func refImage(r *memRef) []byte {
	if len(r.data) == SRAMSize {
		return r.data
	}
	return append(r.data[:dramLow:dramLow], r.data[dramHigh:]...)
}

// oobPanic is the panic text of an access to [off, end) past the end of
// memory which.
func oobPanic(which, off, end int) string {
	if which == dram {
		return fmt.Sprintf("mem: DRAM access [%#x,%#x) beyond %d MB window", off, end, DRAMSize>>20)
	}
	return fmt.Sprintf("mem: SRAM access [%#x,%#x) beyond %d KB scratchpad", off, end, SRAMSize>>10)
}

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

// checkTable checks m's block bookkeeping: written lists each entry
// that holds a block of its own exactly once, and no other.
func checkTable(t *testing.T, where string, m *Memory) {
	t.Helper()
	listed := make([]bool, len(m.blocks))
	for _, i := range m.written {
		if listed[i] || m.blocks[i] == &zeroBlock {
			t.Fatalf("%s: block %d listed twice, or listed with no block of its own", where, i)
		}
		listed[i] = true
	}
	for i, b := range m.blocks {
		if b != &zeroBlock && !listed[i] {
			t.Fatalf("%s: block %d holds a block of its own that Reset would not clear", where, i)
		}
	}
}

// runMemOps interprets ops against a fresh harness, then Resets every
// memory and replays the same ops: Reset must keep every block the
// first pass allocated, and the warm pass must allocate none.
func runMemOps(t *testing.T, ops []byte) {
	h := newMemHarness()
	h.run(t, ops)
	var cold [numMems]int
	for i, m := range h.mems {
		cold[i] = m.AllocatedBytes()
		m.Reset()
		h.refs[i].reset()
		if m.AllocatedBytes() != cold[i] {
			t.Fatalf("memory %d: Reset released a block", i)
		}
	}
	h.run(t, ops)
	for i, m := range h.mems {
		if m.AllocatedBytes() != cold[i] {
			t.Fatalf("memory %d: the warm rerun allocated a block the first pass did not", i)
		}
	}
}

// run interprets ops. An access past a memory's end must panic with the
// memory's exact message and change nothing. After every operation run
// compares the reachable bytes and AccessedBytes of every memory with
// its reference and checks the block bookkeeping; checks that the
// shared zero block is still zero; that a read allocated and listed
// nothing; that a write gave every block it covers a block of its own;
// and that Reset kept its blocks and listed none.
func (h *memHarness) run(t *testing.T, ops []byte) {
	st := &opStream{ops}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	for step := 0; len(st.b) > 0 && step < 64; step++ {
		code := st.byte()
		kind, which := code%numOps, code/numOps%numMems
		m, r := h.mems[which], h.refs[which]
		off, n := st.offset(which), st.length()
		switch kind {
		case opStore8, opLoad8:
			n = 1
		case opStore32, opLoad32:
			n = 4
		case opStore64, opLoad64:
			n = 8
		case opStoreF32s, opLoadF32s:
			n &^= 3
		}
		src, so := which, 0
		if kind == opCopy {
			src = st.byte() % numMems
			so = st.offset(src)
		}
		where := fmt.Sprintf("step %d (op %d on memory %d, [%#x,+%d))", step, kind, which, off, n)
		written, spare, allocated := len(m.written), len(m.spare), m.AllocatedBytes()
		reads, writes := false, true
		switch {
		case kind == opReset:
			writes = false
			m.Reset()
			r.reset()
			if len(m.written) != 0 || m.AllocatedBytes() != allocated {
				t.Fatalf("%s: Reset left %d blocks listed, or released a block", where, len(m.written))
			}
		case kind == opCopy && so+n > h.mems[src].size():
			writes = false
			mustPanicWith(t, oobPanic(src, so, so+n), func() { Copy(m, Addr(off), h.mems[src], Addr(so), n) })
		case off+n > m.size():
			writes = false
			mustPanicWith(t, oobPanic(which, off, off+n), func() {
				if kind == opCopy {
					Copy(m, Addr(off), h.mems[src], Addr(so), n)
				} else {
					access(kind, m, Addr(off), n)
				}
			})
		case kind == opCopy:
			Copy(m, Addr(off), h.mems[src], Addr(so), n)
			copy(r.data[off:off+n], h.refs[src].data[so:so+n])
			r.accessed += uint64(n)
			h.refs[src].accessed += uint64(n)
		case kind < opCopy: // the stores and Write
			val := make([]byte, n)
			rng.Read(val)
			store(kind, m, Addr(off), val)
			copy(r.data[off:], val)
			r.accessed += uint64(n)
		default: // the loads and Read
			reads, writes = true, false
			got := load(kind, m, Addr(off), n)
			if !bytes.Equal(got, r.data[off:off+n]) {
				t.Fatalf("%s: load of %x, flat memory %x", where, got, r.data[off:off+n])
			}
			r.accessed += uint64(n)
		}
		for k, mk := range h.mems {
			if !bytes.Equal(image(mk), refImage(h.refs[k])) {
				t.Fatalf("%s: memory %d differs from its flat reference", where, k)
			}
			if got, want := mk.AccessedBytes(), h.refs[k].accessed; got != want {
				t.Fatalf("%s: memory %d AccessedBytes = %d, flat reference %d", where, k, got, want)
			}
			checkTable(t, where, mk)
		}
		if zeroBlock != (block{}) {
			t.Fatalf("%s: a write reached the shared zero block", where)
		}
		if reads && (len(m.written) != written || len(m.spare) != spare) {
			t.Fatalf("%s: a read allocated or listed a block", where)
		}
		if writes && n > 0 {
			for b := off / blockSize; b <= (off+n-1)/blockSize; b++ {
				if m.blocks[b] == &zeroBlock {
					t.Fatalf("%s: the write left block %d without a block of its own", where, b)
				}
			}
		}
	}
}

// store writes the n = len(val) bytes of val at off of m with the store
// kind: a word store, a float run, or Write.
func store(kind int, m *Memory, off Addr, val []byte) {
	switch kind {
	case opStore8:
		m.Store8(off, val[0])
	case opStore32:
		m.Store32(off, binary.LittleEndian.Uint32(val))
	case opStore64:
		m.Store64(off, binary.LittleEndian.Uint64(val))
	case opStoreF32s:
		src := make([]float32, len(val)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(val[4*i:]))
		}
		m.StoreF32s(off, src)
	case opWrite:
		m.Write(off, val)
	}
}

// load reads n bytes at off of m with the load kind: a word load, a
// float run, or Read into a buffer of stale bytes it must overwrite.
func load(kind int, m *Memory, off Addr, n int) []byte {
	switch kind {
	case opLoad8:
		return []byte{m.Load8(off)}
	case opLoad32:
		return binary.LittleEndian.AppendUint32(nil, m.Load32(off))
	case opLoad64:
		return binary.LittleEndian.AppendUint64(nil, m.Load64(off))
	case opLoadF32s:
		got := make([]float32, n/4)
		for i := range got {
			got[i] = math.Float32frombits(0xA5A5A5A5)
		}
		m.LoadF32s(off, got)
		b := make([]byte, 0, n)
		for _, v := range got {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	default:
		got := bytes.Repeat([]byte{0xA5}, n)
		m.Read(off, got)
		return got
	}
}

// access runs a load or store of kind that is expected to panic.
func access(kind int, m *Memory, off Addr, n int) {
	if kind < opCopy {
		store(kind, m, off, make([]byte, n))
	} else {
		load(kind, m, off, n)
	}
}

// TestSRAMDirtyDifferential runs seeded random operation sequences -
// every write and read path and the legs between memories, aligned and
// not, inside, across and past block boundaries, with Resets between -
// against the flat references, then replays each sequence on the warm
// memories.
func TestSRAMDirtyDifferential(t *testing.T) {
	// A word, a doubleword and a float run straddling the block 0/1
	// boundary, a Copy of the straddled bytes into the last 16 bytes of
	// the scratchpad, then Reset and every read path over both places,
	// a word load past the end last.
	runMemOps(t, []byte{
		op(opStore32, sram0), 1, 0xFE, 0, 0, // at 0xFFE
		op(opStore64, sram0), 1, 0xFC, 0, 0, // at 0xFFC
		op(opStoreF32s, sram0), 1, 0xF0, 0x40, 0, // 16 floats at 0xFF0
		op(opCopy, sram0), 8, 0xF0, 0x10, 0, sram0, 1, 0xF0, // [0xFF0,+16) to [0x7FF0,+16)
		op(opReset, sram0), 0, 0, 0, 0,
		op(opLoad8, sram0), 1, 0xFE, 0, 0,
		op(opLoad32, sram0), 1, 0xFE, 0, 0,
		op(opLoad64, sram0), 1, 0xFE, 0, 0,
		op(opRead, sram0), 1, 0xFE, 0x10, 0,
		op(opLoadF32s, sram0), 1, 0xF0, 0x40, 0,
		op(opLoad64, sram0), 8, 0xF0, 0, 0,
		op(opRead, sram0), 8, 0xF0, 0x10, 0,
		op(opLoad32, sram0), 8, 0xFE, 0, 0, // [0x7FFE,0x8002): past the end
	})
	// A DMA leg of 0x1010 bytes out of block 2 into DRAM across a block
	// boundary, then back into blocks 5-6.
	runMemOps(t, []byte{
		op(opWrite, sram0), 2, 0, 0x10, 0x10, // [0x2000,+0x1010)
		op(opCopy, dram), 1, 0xF8, 0x10, 0x10, sram0, 2, 0, // to DRAM 0xFF8
		op(opCopy, sram0), 5, 0x08, 0x10, 0x10, dram, 1, 0xF8, // into [0x5008,+0x1010)
	})
	// Copies onto a later, overlapping part of their own range across a
	// block boundary, in a scratchpad and in the window: the second
	// block's source bytes are overwritten unless the copy runs back to
	// front.
	runMemOps(t, []byte{
		op(opWrite, sram0), 1, 0x80, 0, 0x02, // [0xF80,+0x200)
		op(opCopy, sram0), 1, 0x10, 0, 0x01, sram0, 1, 0x80, // [0xF80,+0x100) to 0x1010
		op(opWrite, dram), 2, 0x80, 0, 0x02, // [0x1F80,+0x200)
		op(opCopy, dram), 2, 0x10, 0, 0x01, dram, 2, 0x80, // [0x1F80,+0x100) to 0x2010
	})
	rng := rand.New(rand.NewSource(21))
	for i := range 40 {
		ops := make([]byte, 40*(i%4+1))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runMemOps(t, ops) })
	}
}

// TestDRAMPagedDifferential runs the differential on sequences aimed at
// the ends of the window, then on seeded random sequences.
func TestDRAMPagedDifferential(t *testing.T) {
	// Accesses ending exactly at the window's end, one byte past it, and
	// starting at and past it.
	runMemOps(t, []byte{
		op(opStore32, dram), 0x80, 0xFC, 0, 0,
		op(opLoad32, dram), 0x80, 0xFC, 0, 0,
		op(opWrite, dram), 0x80, 0xF0, 0x10, 0,
		op(opRead, dram), 0x80, 0xE0, 0x20, 0,
		op(opLoadF32s, dram), 0x80, 0xF8, 0x08, 0,
		op(opStoreF32s, dram), 0x80, 0xF8, 0x08, 0,
		op(opRead, dram), 0x80, 0xF0, 0x11, 0,
		op(opLoad32, dram), 0x80, 0xFD, 0, 0,
		op(opLoad64, dram), 0x80, 0, 0, 0,
		op(opStore8, dram), 0x80, 0x10, 0, 0,
		op(opCopy, sram1), 0, 0, 0x10, 0, dram, 0x80, 0xF8, // a leg from past the end
	})
	rng := rand.New(rand.NewSource(17))
	for i := range 40 {
		ops := make([]byte, 40*(i%4+1))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runMemOps(t, ops) })
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
		t.Run(fmt.Sprint(i), func(t *testing.T) { runMemOps(t, ops) })
	}
}

// FuzzSRAM drives the differential of both scratchpads and the window
// against their flat references from fuzzed bytes.
func FuzzSRAM(f *testing.F) {
	f.Add([]byte{})
	// A Write across blocks 2-4, Reset, then reads inside it.
	f.Add([]byte{op(opWrite, sram0), 3, 0x80, 0x08, 0x20, op(opReset, sram0), 0, 0, 0, 0,
		op(opRead, sram0), 4, 0, 0x10, 0, op(opLoad32, sram0), 4, 0, 0, 0})
	// A Store64 straddling blocks 6/7 of the second SRAM, copied into
	// the first, then the second Reset.
	f.Add([]byte{op(opStore64, sram1), 7, 0xFC, 0, 0, op(opCopy, sram0), 3, 0x10, 0x10, 0, sram1, 7, 0xFC,
		op(opReset, sram1), 0, 0, 0, 0})
	// A DMA leg into the second SRAM's last block, then out again.
	f.Add([]byte{op(opCopy, sram1), 7, 0x10, 0x20, 0, dram, 0, 0x30, op(opCopy, dram), 0, 0x40, 0x20, 0, sram1, 7, 0x10})
	f.Fuzz(func(t *testing.T, ops []byte) { runMemOps(t, ops) })
}

// FuzzDRAM drives the same differential from seeds aimed at the shared
// DRAM window: its first blocks and the blocks up to its end.
func FuzzDRAM(f *testing.F) {
	f.Add([]byte{})
	// A write straddling DRAM blocks 0 and 1 at an unaligned offset,
	// read back as bytes, words and floats, then Reset and read again.
	f.Add([]byte{op(opWrite, dram), 1, 0xFE, 0x10, 0, op(opRead, dram), 1, 0xFE, 0x10, 0,
		op(opLoad32, dram), 1, 0xFE, 0, 0, op(opLoadF32s, dram), 1, 0xFD, 0x20, 0,
		op(opReset, dram), 0, 0, 0, 0, op(opRead, dram), 1, 0xFE, 0x10, 0})
	// A word store across the boundary into the window's last block,
	// and float stores running off its end.
	f.Add([]byte{op(opStore32, dram), 0x81, 0xFE, 0, 0, op(opStoreF32s, dram), 0x80, 0xF8, 0x40, 0,
		op(opStoreF32s, dram), 0x80, 0, 0x08, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runMemOps(t, ops) })
}

// TestSRAMUnwrittenReadsAllocateNothing: every read path over a fresh
// scratchpad returns zeros without allocating a block or anything else.
func TestSRAMUnwrittenReadsAllocateNothing(t *testing.T) {
	s, d := NewSRAM(), NewDRAM()
	dst := make([]float32, 1500)
	buf := make([]byte, 3*blockSize)
	allocs := testing.AllocsPerRun(10, func() {
		if s.Load8(0x1FFF) != 0 || s.Load32(0xFFE) != 0 || s.Load64(SRAMSize-8) != 0 {
			t.Fatal("a word read of an unwritten block is not zero")
		}
		s.LoadF32s(0x0FF0, dst)
		s.Read(0x2800, buf)
		Copy(d, 0, s, 0x100, 64)
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

// TestDRAMUntouchedReadsAllocateNothing: reading blocks of the window
// nobody wrote yields zeros without allocating a block or a byte.
func TestDRAMUntouchedReadsAllocateNothing(t *testing.T) {
	d := NewDRAM()
	d.Store32(0, 1) // one block in use; the reads below avoid it
	buf := make([]byte, 3*blockSize)
	floats := make([]float32, 1000)
	off := Addr(5*blockSize - 6) // unaligned, straddling blocks 4-7
	allocs := testing.AllocsPerRun(20, func() {
		d.Read(off, buf)
		d.LoadF32s(off, floats)
		_ = d.Load32(off + 4)
	})
	if allocs != 0 {
		t.Fatalf("reads of untouched blocks allocate %v times per run", allocs)
	}
	for b, blk := range d.blocks {
		if blk != &zeroBlock && b != 0 {
			t.Fatalf("reading allocated block %d", b)
		}
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("untouched blocks read non-zero")
	}
}

// TestDRAMPooledResetAllocatesNothing: once a block exists, writing it
// again after Reset reuses it.
func TestDRAMPooledResetAllocatesNothing(t *testing.T) {
	d := NewDRAM()
	vals := make([]float32, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		d.StoreF32s(blockSize-8, vals)
		d.Reset()
	})
	if allocs != 0 {
		t.Fatalf("write+Reset on a pooled window allocates %v times per run", allocs)
	}
}

// TestF32StagingMatchesWordwise: the one-copy bulk float accessors and
// the per-word loops kept for big-endian hosts store the same bytes and
// load the same float bits, NaN payloads, infinities and -0 included,
// in SRAM and DRAM, at unaligned offsets and across a block boundary
// too.
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
	for _, native := range []bool{true, false} {
		nativeLittleEndian = native
		for name, m := range map[string]*Memory{"SRAM": NewSRAM(), "DRAM": NewDRAM()} {
			for _, off := range []Addr{0, 1, 3, blockSize - 66, 3*blockSize - 131} {
				m.StoreF32s(off, src)
				got := make([]byte, len(want))
				m.Read(off, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("native %v: %s StoreF32s at %#x stored other bytes", native, name, off)
				}
				dec := make([]float32, len(src))
				m.LoadF32s(off, dec)
				for i, b := range bits {
					if math.Float32bits(dec[i]) != b {
						t.Fatalf("native %v: %s LoadF32s at %#x: float %d = %#x, want %#x",
							native, name, off, i, math.Float32bits(dec[i]), b)
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
	if SRAMSize%blockSize != 0 || DRAMSize%blockSize != 0 || blockSize%4096 != 0 {
		t.Fatalf("%d-byte scratchpad in %d-byte blocks is not whole pages", SRAMSize, blockSize)
	}
	for _, s := range NewSRAMs(3) {
		for b := range sramBlocks {
			s.Store8(Addr(b*blockSize), 1)
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
					s.Store32(Addr(i*blockSize), 1)
				}
				s.Reset()
			}
		})
	}
}

// BenchmarkSRAMStore32 prices the word store, sweeping the whole
// scratchpad so every block boundary is crossed.
func BenchmarkSRAMStore32(b *testing.B) {
	s := NewSRAM()
	for b.Loop() {
		store32Sweep(s)
	}
	b.SetBytes(SRAMSize)
}

// store32Sweep stores every word of s. It sits outside b.Loop's body,
// whose calls the compiler never inlines, so Store32 is called as a
// kernel calls it.
func store32Sweep(s *Memory) {
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
