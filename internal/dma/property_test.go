package dma

import (
	"testing"
	"testing/quick"

	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// refCopy is an independent model of the descriptor walk, used to check
// the engine's functional copy against a second implementation.
func refCopy(srcMem, dstMem []byte, d *Desc, srcOff, dstOff int) {
	so, do := srcOff, dstOff
	for row := 0; row < d.OuterCount; row++ {
		rs, rd := so, do
		for i := 0; i < d.InnerCount; i++ {
			copy(dstMem[rd:rd+d.Beat], srcMem[rs:rs+d.Beat])
			if i < d.InnerCount-1 {
				rs += d.SrcInnerStride
				rd += d.DstInnerStride
			}
		}
		so = rs + d.SrcOuterStride
		do = rd + d.DstOuterStride
	}
}

// Property: arbitrary (bounded) 2D descriptors move exactly the bytes
// the reference walk says, between cores.
func TestDesc2DCopyProperty(t *testing.T) {
	f := func(inner, outer, strideSel, beatSel uint8) bool {
		in := int(inner%6) + 1
		out := int(outer%6) + 1
		beat := 4
		if beatSel%2 == 0 {
			beat = 8
		}
		// Strides chosen to stay within a 4 KB window with no overlap
		// hazards: inner stride >= beat, outer keeps rows apart.
		sIn := beat * (1 + int(strideSel%3))
		d := &Desc{
			Beat: beat, InnerCount: in, OuterCount: out,
			SrcInnerStride: sIn, DstInnerStride: beat,
			SrcOuterStride: sIn, DstOuterStride: beat,
			Src: 0x0400, Dst: 0,
		}
		f2 := newFabric()
		d.Dst = f2.Map.GlobalOf(1, 0x0400)
		// Fill the source with a recognizable pattern.
		srcImg := make([]byte, mem.SRAMSize)
		for i := range srcImg {
			srcImg[i] = byte(i*7 + 3)
		}
		f2.SRAMs[0].Write(0, srcImg)
		e := NewEngine(f2, 0)
		f2.Eng.Spawn("t", func(p *sim.Proc) {
			e.Start(DMA0, d)
			e.Wait(p, DMA0)
		})
		if err := f2.Eng.Run(); err != nil {
			return false
		}
		want := make([]byte, mem.SRAMSize)
		refCopy(srcImg, want, d, 0x0400, 0x0400)
		got := sramImage(f2.SRAMs[1])
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion time is never earlier than either the DMA pacing
// bound or the mesh serialization bound.
func TestDMACompletionLowerBoundProperty(t *testing.T) {
	f := func(sz uint8, dstSel uint8) bool {
		n := (int(sz%64) + 1) * 8
		dst := int(dstSel) % 64
		if dst == 0 {
			dst = 1
		}
		f2 := newFabric()
		e := NewEngine(f2, 0)
		var done sim.Time
		f2.Eng.Spawn("t", func(p *sim.Proc) {
			e.Start(DMA0, Desc1D(0, f2.Map.GlobalOf(dst, 0), n, 8))
			e.Wait(p, DMA0)
			done = p.Now()
		})
		if err := f2.Eng.Run(); err != nil {
			return false
		}
		return done >= noc.DMASerialization(n, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
