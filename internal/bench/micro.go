package bench

import (
	"fmt"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// newChip builds a fresh 8x8 device on a fresh engine.
func newChip() (*sim.Engine, *ecore.Chip) {
	eng := sim.NewEngine()
	return eng, ecore.NewChip(eng, 8, 8)
}

// Fig2 reproduces Figure 2: DMA vs direct-write bandwidth between
// adjacent eCores as a function of message size. The DMA series reuses
// its descriptor across transfers, as a bandwidth benchmark does.
func Fig2() *Table {
	t := &Table{
		ID:     "Figure 2",
		Title:  "Bandwidth - DMA vs Direct Writes (adjacent cores)",
		Header: []string{"bytes", "DMA GB/s", "Direct GB/s"},
	}
	const reps = 40
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		t.AddRow(fmt.Sprint(n), f3(dmaBandwidth(n, reps)), f3(directBandwidth(n, reps)))
	}
	t.AddNote("paper: DMA reaches ~2 GB/s for large messages and loses below ~500 B")
	return t
}

func dmaBandwidth(n, reps int) float64 {
	eng, ch := newChip()
	var elapsed sim.Time
	ch.Launch(0, "sender", func(c *ecore.Core) {
		dst := c.GlobalOn(0, 1, 0x4000)
		d := c.DMASetDesc(dma.Desc1D(0x4000, dst, n, 8))
		c.CtimerStart(0)
		for i := 0; i < reps; i++ {
			c.DMAStart(dma.DMA0, d)
			c.DMAWait(dma.DMA0)
		}
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return float64(n*reps) / elapsed.Nanoseconds()
}

func directBandwidth(n, reps int) float64 {
	eng, ch := newChip()
	var elapsed sim.Time
	ch.Launch(0, "sender", func(c *ecore.Core) {
		dst := c.GlobalOn(0, 1, 0x4000)
		c.CtimerStart(0)
		for i := 0; i < reps; i++ {
			c.CopyWordsTo(dst, 0x4000, n/4)
		}
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return float64(n*reps) / elapsed.Nanoseconds()
}

// Fig3 reproduces Figure 3: one-shot small-message latency, where the
// DMA path pays descriptor construction and completion detection, so
// direct writes win below the ~500-byte crossover.
func Fig3() *Table {
	t := &Table{
		ID:     "Figure 3",
		Title:  "Latency - DMA vs Direct Writes (one transfer, adjacent cores)",
		Header: []string{"bytes", "DMA us", "Direct us", "winner"},
	}
	cross := 0
	for _, n := range []int{8, 16, 32, 64, 128, 256, 384, 512, 768, 1024, 2048} {
		d := oneShotDMALatency(n)
		w := oneShotDirectLatency(n)
		winner := "direct"
		if d < w {
			winner = "DMA"
			if cross == 0 {
				cross = n
			}
		}
		t.AddRow(fmt.Sprint(n), f3(d.Seconds()*1e6), f3(w.Seconds()*1e6), winner)
	}
	t.AddNote("crossover at ~%d bytes (paper: ~500)", cross)
	return t
}

func oneShotDMALatency(n int) sim.Time {
	eng, ch := newChip()
	var elapsed sim.Time
	ch.Launch(0, "sender", func(c *ecore.Core) {
		c.CtimerStart(0)
		d := c.DMASetDesc(dma.Desc1D(0x4000, c.GlobalOn(0, 1, 0x4000), n, 8))
		c.DMAStart(dma.DMA0, d)
		c.DMAWait(dma.DMA0)
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

func oneShotDirectLatency(n int) sim.Time {
	eng, ch := newChip()
	var elapsed sim.Time
	ch.Launch(0, "sender", func(c *ecore.Core) {
		c.CtimerStart(0)
		c.CopyWordsTo(c.GlobalOn(0, 1, 0x4000), 0x4000, n/4)
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// Table1 reproduces Table I: the per-word time of an 80-byte direct-write
// transfer from core (0,0) to cores at increasing Manhattan distance,
// measured with the flag-handshake ping-pong the paper's Listing 1 uses.
func Table1() *Table {
	t := &Table{
		ID:     "Table I",
		Title:  "Effect of node distance on transfer latency (80-byte messages)",
		Header: []string{"node 1", "node 2", "distance", "ns/word"},
	}
	targets := []struct{ r, c int }{
		{0, 1}, {1, 0}, {0, 2}, {1, 1}, {1, 2}, {3, 0},
		{0, 4}, {1, 3}, {3, 3}, {4, 4}, {7, 7},
	}
	for _, tg := range targets {
		ns := pingPongPerWord(tg.r, tg.c)
		t.AddRow("0,0", fmt.Sprintf("%d,%d", tg.r, tg.c), fmt.Sprint(tg.r+tg.c), f2(ns))
	}
	t.AddNote("paper ranges 11.12 ns (distance 1) to 12.57 ns (distance 14)")
	return t
}

func pingPongPerWord(tr, tc int) float64 {
	eng, ch := newChip()
	const loops = 200
	const words = 20
	const flagOff mem.Addr = 0x7000
	dataOff := mem.Addr(0x4000)
	var elapsed sim.Time
	target := ch.Map().CoreIndex(tr, tc)
	ch.Launch(target, "echo", func(c *ecore.Core) {
		for i := 1; i <= loops; i++ {
			c.WaitLocal32GE(flagOff, uint32(i))
			c.CopyWordsTo(c.GlobalOn(0, 0, dataOff), dataOff, words)
			c.StoreGlobal32(c.GlobalOn(0, 0, flagOff), uint32(i))
		}
	})
	ch.Launch(0, "origin", func(c *ecore.Core) {
		c.CtimerStart(0)
		for i := 1; i <= loops; i++ {
			c.CopyWordsTo(c.GlobalOn(tr, tc, dataOff), dataOff, words)
			c.StoreGlobal32(c.GlobalOn(tr, tc, flagOff), uint32(i))
			c.WaitLocal32GE(flagOff, uint32(i))
		}
		elapsed = c.CtimerElapsed(0)
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	// Each loop carries two transfers of `words` words.
	return elapsed.Nanoseconds() / float64(2*loops*words)
}

// elinkExperiment saturates the off-chip link from the given cores for a
// window of simulated time, returning iteration counts and utilization.
func elinkExperiment(cores []int, window sim.Time) (*ecore.Chip, error) {
	eng, ch := newChip()
	for _, idx := range cores {
		idx := idx
		ch.Launch(idx, fmt.Sprintf("writer%d", idx), func(c *ecore.Core) {
			for off := mem.Addr(0); ; off = (off + 2048) % (1 << 20) {
				c.BlockWriteDRAM(off, 0, 2048)
				if c.Now() >= window {
					return
				}
			}
		})
	}
	eng.At(window, func() { eng.Stop() })
	if err := eng.RunUntil(window); err != nil {
		return nil, err
	}
	// Unwind the writers the window cut off, so their coroutines stop
	// with the chip; the eLink keeps its counters.
	if err := eng.Reset(); err != nil {
		return nil, err
	}
	return ch, nil
}

// Table2 reproduces Table II: four eCores (a 2x2 group at the origin)
// writing 2 KB blocks to DRAM for a sustained window.
func Table2() *Table {
	return elinkTable("Table II", "4 mesh nodes writing 2KB blocks to DRAM",
		[]struct{ r, c int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		200*sim.Millisecond,
		"paper: 0.41 / 0.33 / 0.17 / 0.08 (graded shares; see EXPERIMENTS.md on the in-row ordering)")
}

// Table3 reproduces Table III: all 64 eCores writing simultaneously,
// showing the starvation structure.
func Table3() *Table {
	var nodes []struct{ r, c int }
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			nodes = append(nodes, struct{ r, c int }{r, c})
		}
	}
	return elinkTable("Table III", "64 mesh nodes writing 2KB blocks to DRAM",
		nodes, 200*sim.Millisecond,
		"paper: (0-3,7) get ~0.187 each; ~24 cores get zero iterations")
}

func elinkTable(id, title string, nodes []struct{ r, c int }, window sim.Time, note string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"mesh node", "iterations", "utilization"},
	}
	amap := mem.NewMap(8, 8)
	cores := make([]int, 0, len(nodes))
	for _, n := range nodes {
		cores = append(cores, amap.CoreIndex(n.r, n.c))
	}
	ch2, err := elinkExperiment(cores, window)
	if err != nil {
		panic(err)
	}
	el := ch2.Fabric().ELink
	for i, n := range nodes {
		t.AddRow(fmt.Sprintf("%d,%d", n.r, n.c),
			fmt.Sprint(el.Served(cores[i])),
			f3(el.Utilization(cores[i])))
	}
	t.AddNote("%s", note)
	return t
}
