package dma

import (
	"bytes"
	"math/rand"
	"testing"

	"epiphany/internal/mem"
)

// copyDescBeats is the beat-at-a-time walk copyDesc made before
// contiguous rows moved as ranges: the reference for the bytes it
// leaves and the counters it charges.
func (e *Engine) copyDescBeats(d *Desc, src, dst mem.Target) {
	so, do := src.Off, dst.Off
	for row := 0; row < d.OuterCount; row++ {
		rs, rd := so, do
		for i := 0; i < d.InnerCount; i++ {
			e.writeBeat(dst, rd, d.Beat, e.readBeat(src, rs, d.Beat))
			if i < d.InnerCount-1 {
				rs += mem.Addr(d.SrcInnerStride)
				rd += mem.Addr(d.DstInnerStride)
			}
		}
		so = rs + mem.Addr(d.SrcOuterStride)
		do = rd + mem.Addr(d.DstOuterStride)
	}
}

// dramSpan is the seeded DRAM prefix. DRAM destinations sit above it, on
// pages only the copy itself writes.
const dramSpan = 0x4000

// seededFabric returns a fabric whose first cores' scratchpads and the
// first dramSpan bytes of DRAM hold seeded random bytes. Equal seeds give
// equal memories and equal access counters.
func seededFabric(seed int64) *Fabric {
	f := newFabric()
	rng := rand.New(rand.NewSource(seed))
	for _, s := range f.SRAMs[:4] {
		rng.Read(s.Bytes(0, mem.SRAMSize))
	}
	buf := make([]byte, dramSpan)
	rng.Read(buf)
	f.DRAM.Write(0, buf)
	return f
}

// dramPrefix returns a copy of the first n bytes of f's DRAM.
func dramPrefix(f *Fabric, n int) []byte {
	b := make([]byte, n)
	f.DRAM.Read(0, b)
	return b
}

// tile2D is a 2D doubleword descriptor moving rows x 8*dwords bytes
// between row pitches srcPitch and dstPitch, as the stream kernel's
// tile transfers do.
func tile2D(src, dst mem.Addr, rows, dwords, srcPitch, dstPitch int) *Desc {
	return &Desc{
		Beat: 8, InnerCount: dwords, OuterCount: rows,
		SrcInnerStride: 8, DstInnerStride: 8,
		SrcOuterStride: srcPitch - 8*(dwords-1),
		DstOuterStride: dstPitch - 8*(dwords-1),
		Src:            src, Dst: dst,
	}
}

// TestCopyDescMatchesBeatOrder: copyDesc leaves every SRAM and DRAM byte
// and every byte counter as the beat-order walk does, and DRAM Reset
// clears every byte it wrote.
func TestCopyDescMatchesBeatOrder(t *testing.T) {
	m := mem.NewMap(8, 8)
	dram := func(off int) mem.Addr { return mem.DRAMBase + mem.Addr(off) }
	for _, tc := range []struct {
		name string
		core int // issuing core
		desc *Desc
	}{
		{"1d-dword", 0, Desc1D(0x1000, m.GlobalOf(1, 0x2000), 512, 8)},
		{"1d-word", 0, Desc1D(0x1004, m.GlobalOf(2, 0x3000), 60, 4)},
		{"2d-outer-strides", 1, tile2D(0x100, m.GlobalOf(3, 0x4000), 6, 5, 72, 40)},
		{"2d-sram-to-dram", 2, tile2D(0x800, dram(dramSpan+0x1000), 7, 3, 24, 200)},
		{"2d-dram-to-sram", 3, tile2D(dram(0x40), m.GlobalOf(0, 0x6000), 5, 4, 136, 32)},
		{"2d-strided-beats", 0, &Desc{Beat: 4, InnerCount: 4, OuterCount: 3,
			SrcInnerStride: 8, DstInnerStride: 4, SrcOuterStride: 16, DstOuterStride: 4,
			Src: 0x200, Dst: m.GlobalOf(1, 0x200)}},
		{"same-sram-forward-overlap", 0, Desc1D(0x1000, 0x1008, 64, 8)},
		{"same-sram-backward-overlap", 0, Desc1D(0x1008, 0x1000, 64, 8)},
		{"same-sram-2d-forward-overlap", 1, tile2D(0x400, 0x404, 4, 6, 64, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := seededFabric(5), seededFabric(5)
			src, dst := m.Decode(tc.core, tc.desc.Src), m.Decode(tc.core, tc.desc.Dst)
			NewEngine(got, tc.core).copyDesc(tc.desc, src, dst)
			NewEngine(want, tc.core).copyDescBeats(tc.desc, src, dst)
			for i := range got.SRAMs {
				if g, w := got.SRAMs[i].AccessedBytes(), want.SRAMs[i].AccessedBytes(); g != w {
					t.Fatalf("core %d SRAM AccessedBytes = %d, beat order charges %d", i, g, w)
				}
			}
			if g, w := got.DRAM.AccessedBytes(), want.DRAM.AccessedBytes(); g != w {
				t.Fatalf("DRAM AccessedBytes = %d, beat order charges %d", g, w)
			}
			for i := range got.SRAMs {
				if !bytes.Equal(got.SRAMs[i].Bytes(0, mem.SRAMSize), want.SRAMs[i].Bytes(0, mem.SRAMSize)) {
					t.Fatalf("core %d SRAM bytes differ from beat order", i)
				}
			}
			if !bytes.Equal(dramPrefix(got, 2*dramSpan), dramPrefix(want, 2*dramSpan)) {
				t.Fatal("DRAM bytes differ from beat order")
			}
			// Reset zeroes every written DRAM page: a write that missed
			// its page's dirty mark would leave bytes behind.
			got.DRAM.Reset()
			if !bytes.Equal(dramPrefix(got, 2*dramSpan), make([]byte, 2*dramSpan)) {
				t.Fatal("DRAM bytes survived Reset")
			}
		})
	}
}

// TestCopyDescDRAMBytesMatchBeatOrder: the DRAM contents after an
// SRAM->DRAM leg, read before any Reset.
func TestCopyDescDRAMBytesMatchBeatOrder(t *testing.T) {
	d := tile2D(0x800, mem.DRAMBase+dramSpan+0x1000, 7, 3, 24, 200)
	got, want := seededFabric(9), seededFabric(9)
	src, dst := got.Map.Decode(2, d.Src), got.Map.Decode(2, d.Dst)
	NewEngine(got, 2).copyDesc(d, src, dst)
	NewEngine(want, 2).copyDescBeats(d, src, dst)
	if !bytes.Equal(dramPrefix(got, 2*dramSpan), dramPrefix(want, 2*dramSpan)) {
		t.Fatal("DRAM bytes differ from beat order")
	}
}

// BenchmarkCopyDescRows times the functional copy of a stream-kernel
// style 2D doubleword tile (32 rows of 128 bytes) from SRAM to DRAM,
// against the beat-order walk it replaced.
func BenchmarkCopyDescRows(b *testing.B) {
	f := seededFabric(1)
	d := tile2D(0x1000, mem.DRAMBase, 32, 16, 128, 1024)
	e := NewEngine(f, 0)
	src, dst := f.Map.Decode(0, d.Src), f.Map.Decode(0, d.Dst)
	for _, bc := range []struct {
		name string
		f    func(*Desc, mem.Target, mem.Target)
	}{{"rows", e.copyDesc}, {"beats", e.copyDescBeats}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.f(d, src, dst)
			}
		})
	}
}
