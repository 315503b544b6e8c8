package ecore

import (
	"testing"

	"epiphany/internal/dma"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

func newChip() (*sim.Engine, *Chip) {
	eng := sim.NewEngine()
	return eng, NewChip(eng, 8, 8)
}

func TestChipGeometry(t *testing.T) {
	eng, ch := newChip()
	_ = eng
	if ch.NumCores() != 64 {
		t.Fatalf("cores = %d", ch.NumCores())
	}
	c := ch.Core(ch.Map().CoreIndex(3, 4))
	if r, col := c.Coords(); r != 3 || col != 4 {
		t.Fatalf("coords = (%d,%d)", r, col)
	}
	if c.Index() != 3*8+4 {
		t.Fatalf("index = %d", c.Index())
	}
	if got := c.Global(0x100); got != ch.Map().GlobalOf(c.Index(), 0x100) {
		t.Fatalf("Global = %#x", got)
	}
}

func TestComputeAdvancesClockAndCountsFlops(t *testing.T) {
	eng, ch := newChip()
	var end sim.Time
	ch.Launch(0, "k", func(c *Core) {
		c.Compute(100, 200)
		end = c.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Cycles(100) {
		t.Fatalf("clock = %v, want 100 cycles", end)
	}
	if ch.Core(0).Flops() != 200 {
		t.Fatalf("flops = %d", ch.Core(0).Flops())
	}
}

func TestStoreGlobal32FlagHandshake(t *testing.T) {
	// Core 0 signals core 1 through a flag; core 1 observes it after the
	// mesh latency plus poll detection.
	eng, ch := newChip()
	const flagOff = 0x1000
	var seenAt sim.Time
	ch.Launch(1, "waiter", func(c *Core) {
		c.WaitLocal32GE(flagOff, 7)
		seenAt = c.Now()
	})
	ch.Launch(0, "signaller", func(c *Core) {
		c.Idle(sim.Cycles(100))
		c.StoreGlobal32(c.GlobalOn(0, 1, flagOff), 7)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	min := sim.Cycles(100) + noc.HopLatency + PollDetectCost
	if seenAt < min {
		t.Fatalf("flag seen at %v, before physically possible %v", seenAt, min)
	}
	if seenAt > min+sim.Cycles(10) {
		t.Fatalf("flag seen at %v, far later than expected ~%v", seenAt, min)
	}
}

func TestStoreGlobal32LocalAlias(t *testing.T) {
	eng, ch := newChip()
	ch.Launch(0, "k", func(c *Core) {
		c.StoreGlobal32(0x500, 42) // local alias address
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ch.Core(0).Local().Load32(0x500); got != 42 {
		t.Fatalf("local store = %d", got)
	}
}

func TestCopyWordsToDataAndTiming(t *testing.T) {
	eng, ch := newChip()
	src := ch.Core(0)
	for i := 0; i < 20; i++ {
		src.Local().Store32(mem.Addr(4*i), uint32(100+i))
	}
	var cpuDone sim.Time
	ch.Launch(0, "k", func(c *Core) {
		c.CopyWordsTo(c.GlobalOn(0, 1, 0x2000), 0, 20)
		cpuDone = c.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// CPU busy: 20 words at the calibrated direct-write period.
	if want := 20 * noc.DirectWriteWordPeriod; cpuDone != want {
		t.Fatalf("cpu done at %v, want %v (Table I model)", cpuDone, want)
	}
	for i := 0; i < 20; i++ {
		if got := ch.Core(1).Local().Load32(mem.Addr(0x2000 + 4*i)); got != uint32(100+i) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestCopyWordsToSelf(t *testing.T) {
	eng, ch := newChip()
	ch.Core(0).Local().Store32(0, 9)
	ch.Launch(0, "k", func(c *Core) {
		c.CopyWordsTo(0x100, 0, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ch.Core(0).Local().Load32(0x100) != 9 {
		t.Fatal("self copy failed")
	}
}

func TestDMAThroughCoreAPI(t *testing.T) {
	eng, ch := newChip()
	c0 := ch.Core(0)
	for i := 0; i < 8; i++ {
		c0.Local().StoreF32(mem.Addr(0x1000+4*i), float32(i))
	}
	var elapsed sim.Time
	ch.Launch(0, "k", func(c *Core) {
		c.CtimerStart(0)
		d := c.DMASetDesc(dma.Desc1D(0x1000, c.GlobalOn(1, 0, 0x1000), 32, 8))
		c.DMAStart(dma.DMA0, d)
		c.DMAWait(dma.DMA0)
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := ch.Core(8).Local().LoadF32(mem.Addr(0x1000 + 4*i)); got != float32(i) {
			t.Fatalf("dma word %d = %v", i, got)
		}
	}
	// Includes the descriptor build cost: this is the Fig 3 latency path.
	if elapsed < noc.DMADescriptorBuildCost+noc.DMAStartCost {
		t.Fatalf("elapsed %v too fast", elapsed)
	}
	if ch.Core(0).CtimerElapsed(0).CoreCycles() != elapsed.CoreCycles() {
		t.Fatal("cycle conversion mismatch")
	}
}

// TestBlockWriteDRAM: a block lands at the eLink's rate with the bytes
// its source held at issue, even though another proc overwrites the
// source while the block is on the link.
func TestBlockWriteDRAM(t *testing.T) {
	eng, ch := newChip()
	c := ch.Core(7) // (0,7): best eLink position
	for i := 0; i < 512; i++ {
		c.Local().Store32(mem.Addr(4*i), uint32(i))
	}
	var done sim.Time
	ch.Launch(7, "k", func(c *Core) {
		c.BlockWriteDRAM(0x8000, 0, 2048)
		done = c.Now()
	})
	eng.Spawn("scribbler", func(p *sim.Proc) {
		p.Wait(1024 * noc.ELinkBytePeriod)
		for i := 0; i < 512; i++ {
			c.Local().Store32(mem.Addr(4*i), 0xDEADBEEF)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(2048) * noc.ELinkBytePeriod; done != want {
		t.Fatalf("block write done at %v, want %v (150 MB/s)", done, want)
	}
	for i := 0; i < 512; i++ {
		if ch.DRAM().Load32(mem.Addr(0x8000+4*i)) != uint32(i) {
			t.Fatalf("dram word %d wrong", i)
		}
	}
}

func TestLaunchWhileRunningPanics(t *testing.T) {
	eng, ch := newChip()
	ch.Launch(0, "long", func(c *Core) { c.Idle(sim.Second) })
	defer func() {
		if recover() == nil {
			t.Fatal("double launch should panic")
		}
	}()
	ch.Launch(0, "again", func(c *Core) {})
	_ = eng
}

func TestProcPanicsOutsideKernel(t *testing.T) {
	_, ch := newChip()
	defer func() {
		if recover() == nil {
			t.Fatal("Proc() outside a kernel should panic")
		}
	}()
	ch.Core(0).Proc()
}

func TestDeterministicEndToEnd(t *testing.T) {
	runOnce := func() sim.Time {
		eng, ch := newChip()
		var last sim.Time
		for i := 0; i < 16; i++ {
			i := i
			ch.Launch(i, "k", func(c *Core) {
				for j := 0; j < 10; j++ {
					c.Compute(uint64(10+i), 20)
					c.StoreGlobal32(c.GlobalOn((i+1)%2, (i+j)%8, 0x700), uint32(j))
				}
				last = c.Now()
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestRemoteWriteNotVisibleBeforeArrival(t *testing.T) {
	// Memory coherence semantics: a posted remote store lands only after
	// the mesh latency; a receiver polling memory directly must not see
	// it early.
	eng, ch := newChip()
	var early, late uint32
	ch.Launch(63, "writer", func(c *Core) { // (7,7): 14 hops to (0,0)
		c.StoreGlobal32(c.GlobalOn(0, 0, 0x900), 77)
	})
	ch.Launch(0, "reader", func(c *Core) {
		c.Idle(2 * sim.Cycle) // after the store issued, before arrival
		early = c.Local().Load32(0x900)
		c.Idle(sim.Cycles(200))
		late = c.Local().Load32(0x900)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if early != 0 {
		t.Fatalf("value visible %d cycles early", 2)
	}
	if late != 77 {
		t.Fatalf("value never arrived: %d", late)
	}
}

func TestDMADataNotVisibleBeforeCompletion(t *testing.T) {
	eng, ch := newChip()
	src := ch.Core(0)
	for i := 0; i < 256; i++ {
		src.Local().Store32(mem.Addr(4*i), 0xAB)
	}
	var early uint32
	ch.Launch(0, "dma", func(c *Core) {
		d := c.DMASetDesc(dma.Desc1D(0, c.GlobalOn(0, 1, 0), 1024, 8))
		c.DMAStart(dma.DMA0, d)
		c.DMAWait(dma.DMA0)
	})
	ch.Launch(1, "reader", func(c *Core) {
		c.Idle(sim.Cycles(10)) // well before the ~575-cycle descriptor build finishes
		early = c.Local().Load32(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if early != 0 {
		t.Fatal("DMA payload visible before the transfer completed")
	}
	if got := ch.Core(1).Local().Load32(0); got != 0xAB {
		t.Fatalf("payload missing after completion: %#x", got)
	}
}

func TestRelaunchCoreAfterCompletion(t *testing.T) {
	// Hosts reuse cores across kernel phases (reset + reload in §III).
	eng, ch := newChip()
	var phase2 sim.Time
	first := ch.Launch(0, "phase1", func(c *Core) { c.Idle(sim.Cycles(100)) })
	eng.Spawn("host", func(p *sim.Proc) {
		p.Join(first)
		second := ch.Launch(0, "phase2", func(c *Core) {
			c.Idle(sim.Cycles(50))
			phase2 = c.Now()
		})
		p.Join(second)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if phase2 != sim.Cycles(150) {
		t.Fatalf("phase 2 ended at %v, want 150 cycles", phase2)
	}
}

func TestFlagOrderingFromSameSender(t *testing.T) {
	// Two stores from one core to the same destination arrive in issue
	// order: data-then-flag protocols depend on it.
	eng, ch := newChip()
	var observed uint32
	ch.Launch(0, "sender", func(c *Core) {
		c.StoreGlobal32(c.GlobalOn(3, 3, 0x100), 42) // data
		c.StoreGlobal32(c.GlobalOn(3, 3, 0x104), 1)  // flag
	})
	ch.Launch(ch.Map().CoreIndex(3, 3), "receiver", func(c *Core) {
		c.WaitLocal32GE(0x104, 1)
		observed = c.Local().Load32(0x100)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 42 {
		t.Fatalf("flag overtook data: read %d", observed)
	}
}

func TestStoreGlobal32ToDRAM(t *testing.T) {
	eng, ch := newChip()
	ch.Launch(0, "k", func(c *Core) {
		c.StoreGlobal32(mem.DRAMBase+0x40, 99)
		c.Idle(sim.Millisecond) // let the eLink carry it
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ch.DRAM().Load32(0x40); got != 99 {
		t.Fatalf("dram word = %d", got)
	}
}

func TestCopyWordsToDRAM(t *testing.T) {
	eng, ch := newChip()
	for i := 0; i < 8; i++ {
		ch.Core(0).Local().Store32(mem.Addr(4*i), uint32(i+1))
	}
	ch.Launch(0, "k", func(c *Core) {
		c.CopyWordsTo(mem.DRAMBase+0x100, 0, 8)
		c.Idle(sim.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := ch.DRAM().Load32(mem.Addr(0x100 + 4*i)); got != uint32(i+1) {
			t.Fatalf("dram word %d = %d", i, got)
		}
	}
}

func TestStoreToUnmappedAddressPanics(t *testing.T) {
	eng, ch := newChip()
	ch.Launch(0, "k", func(c *Core) {
		c.StoreGlobal32(0x00100000, 1) // hole between SRAM and core windows
	})
	if err := eng.Run(); err == nil {
		t.Fatal("unmapped store should fail the simulation")
	}
}

// spanSums is a noc.Recorder that totals each core activity kind's
// span time.
type spanSums map[noc.ActivityKind]sim.Time

func (s spanSums) CoreSpan(_ int, k noc.ActivityKind, start, end sim.Time) {
	s[k] += end - start
}
func (spanSums) DMATransfer(int, string, sim.Time, sim.Time, int) {}
func (spanSums) ELinkCross(int, sim.Time, sim.Time, int)          {}

func TestActivityAccounting(t *testing.T) {
	eng, ch := newChip()
	spans := spanSums{}
	ch.Fabric().Rec = spans
	ch.Launch(0, "k", func(c *Core) {
		c.Compute(50, 100)
		d := c.DMASetDesc(dma.Desc1D(0, c.GlobalOn(0, 1, 0), 512, 8))
		c.DMAStart(dma.DMA0, d)
		c.DMAWait(dma.DMA0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if compute := ch.Core(0).ComputeTime(); compute != sim.Cycles(50) {
		t.Fatalf("compute = %v", compute)
	}
	if spans[noc.ActCompute] != sim.Cycles(50) {
		t.Fatalf("compute spans = %v, want %v", spans[noc.ActCompute], sim.Cycles(50))
	}
	if spans[noc.ActDMAWait] == 0 {
		t.Fatal("dma wait not recorded")
	}
	if flagWait, ok := spans[noc.ActFlagSpin]; ok {
		t.Fatalf("phantom flag spin %v", flagWait)
	}
}
