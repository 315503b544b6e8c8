package dma

import (
	"testing"

	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

func newFabric() *Fabric {
	eng := sim.NewEngine()
	amap := mem.NewMap(8, 8)
	f := &Fabric{
		Eng:       eng,
		Map:       amap,
		Mesh:      noc.NewMesh(eng, amap),
		ELink:     noc.NewELink(eng, 8, 8),
		ELinkRead: sim.NewResource("elink-read"),
		SRAMs:     make([]*mem.Memory, amap.NumCores()),
		DRAM:      mem.NewDRAM(),
	}
	for i := range f.SRAMs {
		f.SRAMs[i] = mem.NewSRAM()
	}
	return f
}

func run(t *testing.T, f *Fabric, fn func(p *sim.Proc)) {
	t.Helper()
	f.Eng.Spawn("test", fn)
	if err := f.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDesc1D(t *testing.T) {
	d := Desc1D(0x100, 0x200, 64, 8)
	if d.InnerCount != 8 || d.OuterCount != 1 || d.Bytes() != 64 {
		t.Fatalf("Desc1D = %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Desc1D should panic")
		}
	}()
	Desc1D(0, 0, 10, 8)
}

func TestDMA1DBetweenCores(t *testing.T) {
	f := newFabric()
	src, dst := 0, 1 // adjacent
	for i := 0; i < 16; i++ {
		f.SRAMs[src].Store32(mem.Addr(0x1000+4*i), uint32(0xA0+i))
	}
	e := NewEngine(f, src)
	var doneAt sim.Time
	run(t, f, func(p *sim.Proc) {
		d := Desc1D(0x1000, f.Map.GlobalOf(dst, 0x2000), 64, 8)
		e.Start(DMA0, d)
		e.Wait(p, DMA0)
		doneAt = p.Now()
	})
	for i := 0; i < 16; i++ {
		if got := f.SRAMs[dst].Load32(mem.Addr(0x2000 + 4*i)); got != uint32(0xA0+i) {
			t.Fatalf("word %d = %#x", i, got)
		}
	}
	// Completion >= DMA pacing and >= mesh latency.
	if min := noc.DMASerialization(64, 8); doneAt < min {
		t.Fatalf("done at %v, faster than DMA pace %v", doneAt, min)
	}
}

func TestDMA2DColumnTransfer(t *testing.T) {
	// The stencil's column exchange: one 4-byte word per row, source
	// stride = row pitch, as in Listing 2's RIGHT/LEFT descriptors.
	f := newFabric()
	const rows, pitch = 8, 32 // 8-float rows
	for r := 0; r < rows; r++ {
		f.SRAMs[0].StoreF32(mem.Addr(0x1000+r*pitch), float32(r)+0.5)
	}
	e := NewEngine(f, 0)
	run(t, f, func(p *sim.Proc) {
		d := &Desc{
			Beat: 4, InnerCount: 1, OuterCount: rows,
			SrcOuterStride: pitch, DstOuterStride: pitch,
			Src: 0x1000, Dst: f.Map.GlobalOf(1, 0x3000),
		}
		e.Start(DMA1, d)
		e.Wait(p, DMA1)
	})
	for r := 0; r < rows; r++ {
		if got := f.SRAMs[1].LoadF32(mem.Addr(0x3000 + r*pitch)); got != float32(r)+0.5 {
			t.Fatalf("row %d = %v", r, got)
		}
	}
}

func TestDMA2DInnerStrides(t *testing.T) {
	// Gather every other word into a packed destination.
	f := newFabric()
	for i := 0; i < 8; i++ {
		f.SRAMs[0].Store32(mem.Addr(0x400+8*i), uint32(i))
	}
	e := NewEngine(f, 0)
	run(t, f, func(p *sim.Proc) {
		d := &Desc{
			Beat: 4, InnerCount: 8, OuterCount: 1,
			SrcInnerStride: 8, DstInnerStride: 4,
			Src: 0x400, Dst: 0x800, // local-to-local
		}
		e.Start(DMA0, d)
		e.Wait(p, DMA0)
	})
	for i := 0; i < 8; i++ {
		if got := f.SRAMs[0].Load32(mem.Addr(0x800 + 4*i)); got != uint32(i) {
			t.Fatalf("packed word %d = %d", i, got)
		}
	}
}

func TestDMAChain(t *testing.T) {
	f := newFabric()
	f.SRAMs[0].Store32(0x100, 111)
	f.SRAMs[0].Store32(0x200, 222)
	e := NewEngine(f, 0)
	second := Desc1D(0x200, f.Map.GlobalOf(2, 0x200), 4, 4)
	first := Desc1D(0x100, f.Map.GlobalOf(1, 0x100), 4, 4)
	first.Chain = second
	run(t, f, func(p *sim.Proc) {
		e.Start(DMA0, first)
		e.Wait(p, DMA0)
	})
	if f.SRAMs[1].Load32(0x100) != 111 || f.SRAMs[2].Load32(0x200) != 222 {
		t.Fatal("chained descriptors did not both execute")
	}
}

func TestDMAToDRAMUsesELink(t *testing.T) {
	f := newFabric()
	for i := 0; i < 512; i++ {
		f.SRAMs[0].Store32(mem.Addr(4*i), uint32(i))
	}
	e := NewEngine(f, 0)
	var doneAt sim.Time
	run(t, f, func(p *sim.Proc) {
		d := Desc1D(0, mem.DRAMBase+0x1000, 2048, 8)
		e.Start(DMA0, d)
		e.Wait(p, DMA0)
		doneAt = p.Now()
	})
	for i := 0; i < 512; i++ {
		if got := f.DRAM.Load32(mem.Addr(0x1000 + 4*i)); got != uint32(i) {
			t.Fatalf("dram word %d = %d", i, got)
		}
	}
	// 2 KB at 150 MB/s: the eLink, not the 2 GB/s DMA pace, dominates.
	want := sim.Time(2048) * noc.ELinkBytePeriod
	if doneAt < want {
		t.Fatalf("DRAM write done at %v, faster than eLink allows (%v)", doneAt, want)
	}
	if f.ELink.ServedBytes(0) != 2048 {
		t.Fatalf("eLink carried %d bytes, want 2048", f.ELink.ServedBytes(0))
	}
}

func TestDMAFromDRAM(t *testing.T) {
	f := newFabric()
	for i := 0; i < 256; i++ {
		f.DRAM.Store32(mem.Addr(4*i), uint32(i*3))
	}
	e := NewEngine(f, 63) // far corner: reads cross the whole mesh
	var doneAt sim.Time
	run(t, f, func(p *sim.Proc) {
		d := Desc1D(mem.DRAMBase, f.Map.GlobalOf(63, 0x1000), 1024, 8)
		e.Start(DMA0, d)
		e.Wait(p, DMA0)
		doneAt = p.Now()
	})
	for i := 0; i < 256; i++ {
		if got := f.SRAMs[63].Load32(mem.Addr(0x1000 + 4*i)); got != uint32(i*3) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if want := sim.Time(1024) * noc.ELinkBytePeriod; doneAt < want {
		t.Fatalf("DRAM read done at %v, want >= %v", doneAt, want)
	}
}

func TestDMABusyPanics(t *testing.T) {
	f := newFabric()
	e := NewEngine(f, 0)
	err := func() (err error) {
		f.Eng.Spawn("test", func(p *sim.Proc) {
			e.Start(DMA0, Desc1D(0, f.Map.GlobalOf(1, 0), 1024, 8))
			e.Start(DMA0, Desc1D(0, f.Map.GlobalOf(2, 0), 1024, 8))
		})
		return f.Eng.Run()
	}()
	if err == nil {
		t.Fatal("starting a busy channel should panic the proc")
	}
}

func TestDMATwoChannelsIndependent(t *testing.T) {
	f := newFabric()
	f.SRAMs[0].Store32(0x10, 1)
	f.SRAMs[0].Store32(0x20, 2)
	e := NewEngine(f, 0)
	run(t, f, func(p *sim.Proc) {
		e.Start(DMA0, Desc1D(0x10, f.Map.GlobalOf(1, 0x10), 4, 4))
		e.Start(DMA1, Desc1D(0x20, f.Map.GlobalOf(1, 0x20), 4, 4))
		if !e.Busy(DMA0) || !e.Busy(DMA1) {
			t.Error("channels should both be busy")
		}
		e.Wait(p, DMA0)
		e.Wait(p, DMA1)
		if e.Busy(DMA0) || e.Busy(DMA1) {
			t.Error("channels still busy after both waits")
		}
	})
	if f.SRAMs[1].Load32(0x10) != 1 || f.SRAMs[1].Load32(0x20) != 2 {
		t.Fatal("parallel channel transfers failed")
	}
}

func TestDMAWordVsDwordRate(t *testing.T) {
	f := newFabric()
	timeFor := func(beat int) sim.Time {
		e := NewEngine(f, 0)
		var done sim.Time
		eng := sim.NewEngine()
		f2 := newFabric()
		e = NewEngine(f2, 0)
		_ = eng
		f2.Eng.Spawn("t", func(p *sim.Proc) {
			e.Start(DMA0, Desc1D(0, f2.Map.GlobalOf(1, 0), 4096, beat))
			e.Wait(p, DMA0)
			done = p.Now()
		})
		if err := f2.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	w, dw := timeFor(4), timeFor(8)
	if dw >= w {
		t.Fatalf("doubleword (%v) not faster than word (%v)", dw, w)
	}
}

func TestDMANotifyHook(t *testing.T) {
	f := newFabric()
	var notified []int
	f.Notify = func(core int) { notified = append(notified, core) }
	e := NewEngine(f, 0)
	run(t, f, func(p *sim.Proc) {
		e.Start(DMA0, Desc1D(0, f.Map.GlobalOf(5, 0), 64, 8))
		e.Wait(p, DMA0)
		// DRAM writes must not notify any core.
		e.Start(DMA0, Desc1D(0, mem.DRAMBase, 64, 8))
		e.Wait(p, DMA0)
	})
	if len(notified) != 1 || notified[0] != 5 {
		t.Fatalf("notified = %v, want [5]", notified)
	}
}

// TestChainRoundAllocs budgets the allocations of one chained DMA round
// - an on-chip leg, a DRAM read and a DRAM write - on a warm engine:
// none, since every leg runs handlers bound once to its channel and the
// eLink recycles its requests.
func TestChainRoundAllocs(t *testing.T) {
	f := newFabric()
	e := NewEngine(f, 0)
	head := Desc1D(0x1000, f.Map.GlobalOf(1, 0x1000), 64, 8)
	head.Chain = Desc1D(mem.DRAMBase, 0x2000, 64, 8)
	head.Chain.Chain = Desc1D(0x3000, mem.DRAMBase+0x1000, 64, 8)
	allocs := testing.AllocsPerRun(20, func() {
		e.Start(DMA0, head)
		if err := f.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if e.Busy(DMA0) {
		t.Fatal("chain did not complete")
	}
	if allocs != 0 {
		t.Errorf("one chained round allocates %v times, budget 0", allocs)
	}
}
