// Streaming: the paper's §IX future work in action. A 512x512 grid -
// sixteen times the chip's aggregate scratchpad would allow with halos -
// lives in shared DRAM and streams through the 64 cores. With temporal
// blocking T, each paged-in block is iterated T times before being
// written back, cutting eLink traffic by ~T at the cost of redundant
// halo computation. The example sweeps T as one concurrent batch - each
// variant simulates on its own fresh board - and verifies every variant
// produces bit-identical results.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"epiphany"
)

func main() {
	size := flag.Int("size", 512, "global grid edge (divisible by 8x the block edge)")
	block := flag.Int("block", 32, "per-core block edge")
	iters := flag.Int("iters", 16, "stencil iterations")
	flag.Parse()
	base := epiphany.StreamStencilConfig{
		GlobalRows: *size, GlobalCols: *size,
		BlockRows: *block, BlockCols: *block,
		Iters:     *iters,
		GroupRows: 8, GroupCols: 8,
		Seed: 1,
	}
	tblocks := []int{1, 2, 4, 8}
	var jobs []epiphany.Job
	for _, T := range tblocks {
		cfg := base
		cfg.TBlock = T
		jobs = append(jobs, epiphany.Job{Workload: &epiphany.StreamStencilWorkload{
			Label:  fmt.Sprintf("stream-T%d", T),
			Config: cfg,
		}})
	}
	batch, err := (&epiphany.Runner{Workers: len(jobs)}).RunBatch(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	if err := batch.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%dx%d grid, %d iterations, streamed through shared DRAM:\n", *size, *size, *iters)
	fmt.Printf("%-4s %-12s %-10s %-10s %s\n", "T", "time", "GFLOPS", "DRAM MB", "redundant work")

	var first [][]float32
	for i, jr := range batch.Results {
		res := jr.Result.(*epiphany.StreamStencilResult)
		fmt.Printf("%-4d %-12v %-10.2f %-10.1f +%.1f%%\n",
			tblocks[i], res.Elapsed, res.GFLOPS, float64(res.DRAMBytes)/1e6,
			100*float64(res.RedundantFlops)/float64(res.TotalFlops))
		if first == nil {
			first = res.Global
			cfg := base
			cfg.TBlock = tblocks[i]
			ref := epiphany.StreamStencilReference(cfg)
			if diff := maxDiff(first, ref); diff != 0 {
				log.Fatalf("T=1 deviates from global Jacobi by %g", diff)
			}
		} else if diff := maxDiff(first, res.Global); diff != 0 {
			log.Fatalf("T=%d result differs from T=1 by %g", tblocks[i], diff)
		}
	}
	fmt.Println("\nall variants bit-identical to global Jacobi iteration")
}

func maxDiff(a, b [][]float32) float64 {
	worst := 0.0
	for r := range a {
		for c := range a[r] {
			d := float64(a[r][c] - b[r][c])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
