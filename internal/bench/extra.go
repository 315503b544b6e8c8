package bench

import (
	"context"
	"fmt"

	"epiphany/internal/core"
	"epiphany/internal/sim"
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
	cores := make([]int, 64)
	for i := range cores {
		cores[i] = i
	}
	ch, err := elinkExperiment(cores, window, fair)
	if err != nil {
		panic(err)
	}
	el := ch.Fabric().ELink
	var total uint64
	for _, i := range cores {
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
	{"abl-comm", AblationStencilComm},
	{"abl-fair", AblationELinkFairness},
	{"abl-summa", AblationCannonVsSumma},
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
