package bench

import (
	"context"
	"fmt"

	"epiphany/internal/core"
	"epiphany/internal/ecore"
	"epiphany/internal/sim"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// Beyond the paper's own tables and figures, these experiments cover the
// paper's stated future work (the temporally blocked streaming stencil of
// §IX) and ablations of two design choices the paper makes but does not
// isolate: DMA vs direct writes for the stencil boundary exchange, and
// the effect of the eLink's unfair arbitration.

// ExtStreamStencil sweeps the temporal block depth T for a 512x512 grid
// streamed through the chip from shared DRAM: the paper's §IX proposal.
func ExtStreamStencil() *Table {
	t := &Table{
		ID:     "Extension (paper §IX)",
		Title:  "Streaming stencil with temporal blocking: 512x512 grid, 16 iterations",
		Header: []string{"T", "time (ms)", "GFLOPS", "DRAM MB", "redundant flops %"},
	}
	for _, T := range []int{1, 2, 4, 8} {
		cfg := core.StreamStencilConfig{
			GlobalRows: 512, GlobalCols: 512,
			BlockRows: 32, BlockCols: 32,
			Iters: 16, TBlock: T,
			GroupRows: 8, GroupCols: 8,
		}
		r, err := workload.Run(context.Background(), &workload.StreamStencil{Config: cfg})
		if err != nil {
			panic(err)
		}
		res := r.(*core.StreamStencilResult)
		redundant := 100 * float64(res.RedundantFlops) / float64(res.TotalFlops)
		t.AddRow(fmt.Sprint(T), f3(res.Elapsed.Seconds()*1e3), f2(res.GFLOPS),
			f1(float64(res.DRAMBytes)/1e6), f1(redundant))
	}
	t.AddNote("deeper temporal blocking trades redundant halo compute for eLink traffic; results are bit-identical across T")
	return t
}

// AblationStencilComm compares the paper's DMA boundary exchange against
// CPU-issued direct writes, for a tall grid (long word-by-word columns)
// and a wide one (short columns).
func AblationStencilComm() *Table {
	t := &Table{
		ID:     "Ablation",
		Title:  "Stencil boundary exchange: DMA chains vs direct CPU writes (64 cores, 30 iters)",
		Header: []string{"per-core grid", "DMA GFLOPS", "direct GFLOPS", "DMA advantage %"},
	}
	for _, s := range []struct{ r, c int }{{80, 20}, {20, 80}, {20, 20}} {
		base := core.StencilConfig{
			Rows: s.r, Cols: s.c, Iters: 30,
			GroupRows: 8, GroupCols: 8, Comm: true, Tuned: true,
		}
		dmaRes := runStencil(base)
		direct := base
		direct.DirectComm = true
		dirRes := runStencil(direct)
		adv := 100 * (dmaRes.GFLOPS - dirRes.GFLOPS) / dirRes.GFLOPS
		t.AddRow(fmt.Sprintf("%dx%d", s.r, s.c), f2(dmaRes.GFLOPS), f2(dirRes.GFLOPS), f1(adv))
	}
	t.AddNote("the paper's DMA choice wins everywhere, most where the doubleword-DMA edge rows are long (wide grids); Figure 3's crossover in kernel form")
	return t
}

// AblationELinkFairness re-runs Table III's saturation experiment with an
// idealized fair arbiter, quantifying how much of the starvation is the
// silicon's arbitration rather than raw bandwidth.
func AblationELinkFairness() *Table {
	t := &Table{
		ID:     "Ablation",
		Title:  "64-core DRAM writes: calibrated arbitration vs ideal fair arbiter",
		Header: []string{"metric", "calibrated", "fair"},
	}
	window := 100 * sim.Millisecond
	calStarved, calTop, calMBps := elinkFairnessRun(false, window)
	fairStarved, fairTop, fairMBps := elinkFairnessRun(true, window)
	t.AddRow("aggregate MB/s", f1(calMBps), f1(fairMBps))
	t.AddRow("starved cores", fmt.Sprint(calStarved), fmt.Sprint(fairStarved))
	t.AddRow("top-4 share", f3(calTop), f3(fairTop))
	t.AddNote("total bandwidth is identical; the arbitration only redistributes it - the starvation is not a capacity problem")
	return t
}

// elinkFairnessRun saturates the eLink from all 64 cores under the given
// arbitration and summarizes the outcome.
func elinkFairnessRun(fair bool, window sim.Time) (starved int, top4Share, mbps float64) {
	eng, ch := newChip()
	if fair {
		ch.Fabric().ELink.SetUniformWeights()
	}
	for idx := 0; idx < 64; idx++ {
		idx := idx
		ch.Launch(idx, fmt.Sprintf("writer%d", idx), func(c *ecore.Core) {
			for {
				c.BlockWriteDRAM(0, 0, 2048)
				if c.Now() >= window {
					return
				}
			}
		})
	}
	eng.At(window, func() { eng.Stop() })
	if err := eng.RunUntil(window); err != nil {
		panic(err)
	}
	// Unwind the writers the window cut off, so their coroutines stop
	// with the chip; the eLink keeps its counters.
	if err := eng.Reset(); err != nil {
		panic(err)
	}
	el := ch.Fabric().ELink
	var total uint64
	for i := 0; i < 64; i++ {
		total += el.ServedBytes(i)
		if el.Served(i) == 0 {
			starved++
		}
	}
	for _, c := range []int{7, 15, 23, 31} {
		top4Share += el.Utilization(c)
	}
	return starved, top4Share, float64(total) / window.Seconds() / 1e6
}

// Extras lists the beyond-the-paper experiments.
var Extras = []Experiment{
	{"ext-stream", ExtStreamStencil},
	{"ext-topo", ExtTopologyScaling},
	{"abl-comm", AblationStencilComm},
	{"abl-fair", AblationELinkFairness},
	{"abl-summa", AblationCannonVsSumma},
}

// ExtTopologyScaling runs representative workloads across the preset
// fabric topologies: the 16-core E16, the paper's 64-core E64, and the
// 2x2 Parallella cluster whose four E16 chips form an 8x8 mesh glued by
// chip-to-chip eLinks. Workgroups spanning a chip boundary pay the
// boundary's bandwidth and arbitration costs, reported in the x-chip
// columns.
func ExtTopologyScaling() *Table {
	t := &Table{
		ID:     "Extension (multi-chip)",
		Title:  "Fabric topology scaling: same workloads, E16 vs E64 vs 2x2 Parallella cluster",
		Header: []string{"topology", "workload", "cores used", "GFLOPS", "% peak", "x-chip hops", "x-chip time (ms)"},
	}
	names := []string{"stencil-tuned", "matmul-cannon", "matmul-offchip", "stream-stencil"}
	for _, topo := range system.Topologies() {
		for _, name := range names {
			w, ok := workload.ByName(name)
			if !ok {
				panic("bench: workload " + name + " not registered")
			}
			r, err := workload.Run(context.Background(), w, workload.WithTopology(topo))
			if err != nil {
				panic(err)
			}
			m := r.Metrics()
			cores := fmt.Sprint(usedCores(w, topo))
			xh, xt := "-", "-"
			if m.ELinkCrossings > 0 {
				xh = fmt.Sprint(m.ELinkCrossings)
				xt = f3(m.ELinkCrossTime.Seconds() * 1e3)
			}
			t.AddRow(topo.Name, name, cores, f2(m.GFLOPS), f1(m.PctPeak), xh, xt)
		}
	}
	t.AddNote("workgroups clamp themselves to the board (TopologyFitter); E16 results use fewer cores, not a different kernel")
	t.AddNote("the cluster's E64-sized groups span all four chips: the x-chip columns are the price of gluing E16s into an 8x8 mesh")
	return t
}

// usedCores reports how many cores the workload's (topology-fitted)
// workgroup occupies on the given board.
func usedCores(w workload.Workload, topo system.Topology) int {
	return workload.UsedCores(w, topo.Rows(), topo.Cols())
}

// AblationCannonVsSumma compares the paper's Cannon implementation with
// SUMMA (§VIII: "algorithms such as SUMMA and PUMMA are well known ...
// SUMMA also has the advantage of requiring less workspace per node").
func AblationCannonVsSumma() *Table {
	t := &Table{
		ID:     "Ablation",
		Title:  "On-chip matmul: Cannon rotation vs SUMMA broadcast",
		Header: []string{"problem", "grid", "Cannon GFLOPS", "SUMMA GFLOPS", "Cannon advantage %"},
	}
	for _, s := range []struct{ G, g int }{
		{32, 2}, {48, 2}, {64, 4}, {96, 4}, {128, 8},
	} {
		base := core.MatmulConfig{M: s.G, N: s.G, K: s.G, G: s.g, Tuned: true}
		ca := runMatmul(base)
		su := base
		su.Algorithm = "summa"
		sr := runMatmul(su)
		adv := 100 * (ca.GFLOPS - sr.GFLOPS) / sr.GFLOPS
		t.AddRow(fmt.Sprintf("%d^3", s.G), fmt.Sprintf("%dx%d", s.g, s.g),
			f2(ca.GFLOPS), f2(sr.GFLOPS), f1(adv))
	}
	t.AddNote("Cannon's nearest-neighbour rotation beats SUMMA's multi-hop broadcasts on the mesh; SUMMA needs no initial skew and supports 32-wide blocks only with extra paging")
	return t
}
