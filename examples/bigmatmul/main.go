// Bigmatmul: the paper's off-chip workflow. A 512x512 product cannot fit
// in the chip's 2 MB of aggregate scratchpad, so 256x256 tiles are paged
// through the 32 MB shared DRAM window over the eLink, with each eCore
// pulling its own 32x32 sub-blocks by 2D DMA and the 64 cores running
// Cannon rotations on-chip. The run reports the Table-VI-style breakdown
// showing the eLink as the bottleneck.
//
//	go run ./examples/bigmatmul
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"epiphany"
)

func main() {
	n := flag.Int("n", 512, "problem edge (divisible by the 8x8 grid's paging tiles)")
	flag.Parse()
	cfg := epiphany.MatmulConfig{
		M: *n, N: *n, K: *n, G: 8,
		OffChip: true, Tuned: true, Verify: true, Seed: 3,
	}
	fmt.Printf("multiplying %dx%d matrices through shared DRAM (the default 512x512 simulates ~30ms of device time)...\n", *n, *n)
	r, err := epiphany.Run(context.Background(), &epiphany.MatmulWorkload{Label: "bigmatmul", Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	res := r.(*epiphany.MatmulResult)
	fmt.Printf("simulated time        : %v\n", res.Elapsed)
	fmt.Printf("performance           : %.2f GFLOPS (%.1f%% of 76.8 peak)\n", res.GFLOPS, res.PctPeak)
	fmt.Printf("core time in compute  : %.1f%%\n", res.Metrics().PctCompute())
	fmt.Printf("core time in transfers: %.1f%%  <- the 150 MB/s eLink dominates (paper: 87.2%%)\n", res.Metrics().PctTransfer())
	d := epiphany.MaxAbsDiff(res.C, epiphany.MatmulReference(cfg))
	fmt.Printf("max |diff| vs host ref: %g\n", d)
	if d != 0 {
		log.Fatal("verification failed")
	}
}
