// Package core implements the paper's application kernels on the
// simulated Epiphany: the hand-scheduled 5-point heat stencil (§VI) and
// the three-level matrix multiplication (§VII: tuned single-core kernel,
// on-chip Cannon rotation, off-chip paged blocks). Each kernel moves real
// data through the simulated memories and interconnect, and charges
// compute time from the isa package's pipeline model of the paper's
// assembly schedules.
package core

import (
	"fmt"
	"sync"

	"epiphany/internal/isa"
)

// Fixed software overheads of the kernels' outer control flow, in cycles.
// These cover the per-iteration loop control, pointer re-initialization
// and stripe bookkeeping that surround the hand-scheduled inner loops.
const (
	// stencilIterOverhead: per grid pass (outer iteration loop, flag
	// bookkeeping, pointer resets).
	stencilIterOverhead = 200
	// stencilStripeOverhead: per 20-column stripe within a pass (stripe
	// pointer setup beyond the register preload).
	stencilStripeOverhead = 60
	// matmulBlockOverhead: per block multiply (outer loop setup, operand
	// base pointers).
	matmulBlockOverhead = 100
)

// timingCache memoizes pipeline simulations keyed by a small config.
var timingCache sync.Map

func cached(key string, f func() [2]uint64) [2]uint64 {
	if v, ok := timingCache.Load(key); ok {
		return v.([2]uint64)
	}
	v := f()
	timingCache.Store(key, v)
	return v
}

// StencilComputeModel returns the compute cycles and flops for one full
// in-place pass over a rows x cols interior grid.
//
// The tuned kernel processes the grid in 20-wide stripes, two rows per
// unrolled loop iteration (the 200-FMADD body), with a register preload
// per stripe; cols must be a multiple of 20 (the paper's constraint).
// The naive variant models the e-gcc compiled code and takes any shape.
func StencilComputeModel(rows, cols int, tuned bool) (cycles, flops uint64) {
	flops = uint64(rows) * uint64(cols) * 10 // 5 FMADDs per point
	if !tuned {
		v := cached("stencil-naive", func() [2]uint64 {
			body := isa.StencilNaiveBody()
			const probe = 64
			return [2]uint64{isa.LoopCycles(body, probe) / probe, 0}
		})
		return v[0]*uint64(rows)*uint64(cols) + stencilIterOverhead, flops
	}
	if cols%isa.StencilStripeWidth != 0 {
		panic(fmt.Sprintf("core: tuned stencil needs cols %% %d == 0, got %d",
			isa.StencilStripeWidth, cols))
	}
	stripes := cols / isa.StencilStripeWidth
	bodies := uint64(rows+1) / 2
	v := cached("stencil-tuned", func() [2]uint64 {
		pro := isa.NewPipeline()
		proCycles := pro.Run(isa.StencilPrologue())
		body := isa.StencilLoopBody()
		// First iteration and steady-state iteration costs.
		c1 := isa.LoopCycles(body, 1)
		c8, c9 := isa.LoopCycles(body, 8), isa.LoopCycles(body, 9)
		_ = c1
		return [2]uint64{proCycles, c9 - c8}
	})
	proCycles, steady := v[0], v[1]
	perStripe := proCycles + steady*bodies + stencilStripeOverhead
	return uint64(stripes)*perStripe + stencilIterOverhead, flops
}

// MatmulBlockModel returns the compute cycles and flops of one per-core
// block multiply-accumulate C(m x k) += A(m x n) * B(n x k) using the
// tuned (or naive) schedule. k is the accumulator width and must not
// exceed the register file's 32 accumulators.
func MatmulBlockModel(m, n, k int, tuned bool) (cycles, flops uint64) {
	flops = 2 * uint64(m) * uint64(n) * uint64(k)
	key := fmt.Sprintf("matmul-%d-%d-%v", n, k, tuned)
	v := cached(key, func() [2]uint64 {
		var body []isa.Op
		if tuned {
			body = isa.MatmulRowBodyNK(n, k)
		} else {
			body = isa.MatmulNaiveRowBodyNK(n, k)
		}
		pro := isa.NewPipeline()
		proCycles := pro.Run(isa.MatmulPrologue(k))
		c8, c9 := isa.LoopCycles(body, 8), isa.LoopCycles(body, 9)
		return [2]uint64{proCycles, c9 - c8}
	})
	proCycles, steady := v[0], v[1]
	return proCycles + steady*uint64(m) + matmulBlockOverhead, flops
}

// matmulCodeBytes returns the code size of the tuned n x k row body,
// memoized so a plan does not build the macro-expanded program on
// every run only to measure it.
func matmulCodeBytes(n, k int) int {
	v := cached(fmt.Sprintf("matmul-code-%d-%d", n, k), func() [2]uint64 {
		return [2]uint64{uint64(isa.CodeBytes(isa.MatmulRowBodyNK(n, k))), 0}
	})
	return int(v[0])
}
