package core

import (
	"fmt"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
)

// Streaming stencil with temporal blocking - the paper's §IX future work
// ("a pipelined algorithm for stencil computation using both spatial and
// temporal blocking in order to process much higher grid sizes ... that
// computation is performed for a number of iterations before the data is
// moved out of the local memory and new data is brought in").
//
// The grid lives in shared DRAM (it is far too large for the chip's
// aggregate 2 MB). Each time-chunk applies TBlock Jacobi iterations: every
// core pages in its block plus a TBlock-deep halo (overlapped tiling),
// iterates locally with no inter-core communication - the valid region
// shrinks by one ring per iteration, which the halo absorbs - and writes
// its interior back to the destination array. Arrays ping-pong between
// time-chunks, separated by a chip-wide SDK barrier. DRAM traffic per
// iteration falls by roughly a factor of TBlock at the cost of redundant
// halo computation.

// StreamStencilConfig describes a streamed large-grid stencil run.
type StreamStencilConfig struct {
	// GlobalRows, GlobalCols: the interior grid size (the fixed boundary
	// ring is added around it).
	GlobalRows, GlobalCols int
	// BlockRows, BlockCols: per-core interior block size.
	BlockRows, BlockCols int
	// Iters: total iterations.
	Iters int
	// TBlock: iterations per residency (1 disables temporal blocking).
	TBlock int
	// GroupRows, GroupCols: workgroup shape.
	GroupRows, GroupCols int
	Coefs                [5]float32
	Seed                 uint64
	// Initial optionally supplies the field as in StencilConfig.
	Initial [][]float32
}

// Validate checks the configuration without running it (Coefs are not
// inspected; RunStreamStencil substitutes DefaultCoefs for a zero
// value).
func (cfg *StreamStencilConfig) Validate() error {
	return cfg.validate()
}

func (cfg *StreamStencilConfig) validate() error {
	if cfg.GlobalRows <= 0 || cfg.GlobalCols <= 0 || cfg.Iters <= 0 {
		return fmt.Errorf("core: non-positive stream stencil dimensions")
	}
	if cfg.TBlock < 1 {
		return fmt.Errorf("core: TBlock must be >= 1")
	}
	if cfg.GroupRows <= 0 || cfg.GroupCols <= 0 || cfg.BlockRows <= 0 || cfg.BlockCols <= 0 {
		return fmt.Errorf("core: bad group/block shape")
	}
	sr := cfg.GroupRows * cfg.BlockRows
	sc := cfg.GroupCols * cfg.BlockCols
	if cfg.GlobalRows%sr != 0 || cfg.GlobalCols%sc != 0 {
		return fmt.Errorf("core: %dx%d grid not tileable by %dx%d super-blocks",
			cfg.GlobalRows, cfg.GlobalCols, sr, sc)
	}
	ext := 4 * (cfg.BlockRows + 2*cfg.TBlock) * (cfg.BlockCols + 2*cfg.TBlock)
	if stencilGridOff+mem.Addr(ext) > stencilFlagsOff {
		return fmt.Errorf("core: %dx%d block with T=%d halo needs %d B and does not fit the scratchpad",
			cfg.BlockRows, cfg.BlockCols, cfg.TBlock, ext)
	}
	gridBytes := 4 * (cfg.GlobalRows + 2) * (cfg.GlobalCols + 2)
	if 2*gridBytes > mem.DRAMSize {
		return fmt.Errorf("core: grid ping-pong needs %d B, beyond the 32 MB window", 2*gridBytes)
	}
	return nil
}

// StreamStencilResult reports a streamed run.
type StreamStencilResult struct {
	Elapsed sim.Time
	// UsefulFlops counts interior-point updates only; RedundantFlops the
	// overlapped-halo recomputation.
	UsefulFlops    uint64
	RedundantFlops uint64
	GFLOPS         float64 // useful flops over elapsed time
	PctPeak        float64
	// DRAMBytes is the total traffic paged over the eLink.
	DRAMBytes uint64
	Global    [][]float32
	// NoC reports chip-boundary eLink traffic on multi-chip boards.
	NoC NoCStats
}

// streamComputeRate is the modelled compute cost for the generic-shape
// streamed kernel: the tuned discipline cannot assume 20-wide stripes for
// arbitrary halo widths, so the schedule achieves a bit less - 5.6
// cycles per point (10 flops) plus a fixed per-block-pass overhead.
const (
	streamCyclesPerPoint10x = 56 // tenths of a cycle per grid point
	streamPassOverhead      = 250
)

func streamComputeCycles(points int) uint64 {
	return uint64(points)*streamCyclesPerPoint10x/10 + streamPassOverhead
}

// RunStreamStencil executes the streamed temporal-blocking stencil.
func RunStreamStencil(h *host.Host, cfg StreamStencilConfig) (*StreamStencilResult, error) {
	if cfg.Coefs == ([5]float32{}) {
		cfg.Coefs = DefaultCoefs
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := sdk.NewWorkgroup(h.Chip(), 0, 0, cfg.GroupRows, cfg.GroupCols)
	if err != nil {
		return nil, err
	}
	gR, gC := cfg.GlobalRows+2, cfg.GlobalCols+2 // with boundary ring
	pitch := gC
	arrBytes := mem.Addr(4 * gR * gC)
	srcOff, dstOff := mem.Addr(0), arrBytes

	field := makeStreamInput(&cfg)
	res := &StreamStencilResult{}

	h.Spawn("stream-host", func(hp *host.Proc) {
		flat := make([]float32, gR*gC)
		for r := 0; r < gR; r++ {
			copy(flat[r*gC:], field[r])
		}
		// Stage the field into both ping-pong arrays (the ring must be
		// present in each; interiors get overwritten).
		hp.WriteDRAMF32(srcOff, flat)
		hp.WriteDRAMF32(dstOff, flat)

		start := hp.Now()
		// Per-core traffic counters: the kernels run concurrently when
		// the board's chips are on different engine shards, so each core
		// accumulates into its own slot and the host sums after Join
		// (integer sums, so the total is order-independent).
		stats := make([]streamStats, cfg.GroupRows*cfg.GroupCols)
		procs := w.Launch("stream-stencil", func(c *ecore.Core, gr, gc int) {
			streamKernel(c, w, gr, gc, &cfg, pitch, srcOff, dstOff, &stats[gr*cfg.GroupCols+gc])
		})
		hp.Join(procs)
		res.Elapsed = hp.Now() - start
		for _, st := range stats {
			res.DRAMBytes += st.dramBytes
			res.RedundantFlops += st.redundantFlops
		}

		// The final array depends on how many time-chunks ran.
		chunks := (cfg.Iters + cfg.TBlock - 1) / cfg.TBlock
		final := srcOff
		if chunks%2 == 1 {
			final = dstOff
		}
		out := hp.ReadDRAMF32(final, gR*gC)
		// Each row is a capped window of the one staging read, so a
		// caller appending to a row cannot spill into the next.
		res.Global = make([][]float32, cfg.GlobalRows)
		for r := 1; r <= cfg.GlobalRows; r++ {
			a, b := r*gC+1, r*gC+1+cfg.GlobalCols
			res.Global[r-1] = out[a:b:b]
		}
	})
	if err := h.Chip().Engine().Run(); err != nil {
		return nil, err
	}
	res.UsefulFlops = uint64(cfg.GlobalRows) * uint64(cfg.GlobalCols) * 10 * uint64(cfg.Iters)
	res.GFLOPS = float64(res.UsefulFlops) / res.Elapsed.Nanoseconds()
	res.PctPeak = 100 * res.GFLOPS / peakGFLOPS(w.Size())
	res.NoC = captureNoC(h)
	return res, nil
}

// streamStats are one core's private traffic counters; the host sums
// them after Join. Kernels must not write shared result fields - cores
// on different engine shards execute concurrently.
type streamStats struct {
	dramBytes      uint64
	redundantFlops uint64
}

// streamKernel is the per-core device program.
func streamKernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int,
	cfg *StreamStencilConfig, pitch int, srcOff, dstOff mem.Addr, stats *streamStats) {

	b := sdk.NewBarrier(w, gr, gc)
	superR := cfg.GlobalRows / (cfg.GroupRows * cfg.BlockRows)
	superC := cfg.GlobalCols / (cfg.GroupCols * cfg.BlockCols)
	sram := c.Local()
	maxExt := cfg.BlockCols + 2*cfg.TBlock
	// Row buffers, from one allocation: the pre-update rows above and at
	// r, the inputs read from row r+1 and the updated row r.
	rowBuf := make([]float32, 4*maxExt)
	prev, cur, next, out := rowBuf[:maxExt], rowBuf[maxExt:2*maxExt], rowBuf[2*maxExt:3*maxExt], rowBuf[3*maxExt:]

	for done := 0; done < cfg.Iters; done += cfg.TBlock {
		T := cfg.TBlock
		if done+T > cfg.Iters {
			T = cfg.Iters - done
		}
		if done > 0 {
			srcOff, dstOff = dstOff, srcOff
		}
		for sb := 0; sb < superR*superC; sb++ {
			si, sj := sb/superC, sb%superC
			// Interior block origin in ring coordinates.
			br0 := 1 + (si*cfg.GroupRows+gr)*cfg.BlockRows
			bc0 := 1 + (sj*cfg.GroupCols+gc)*cfg.BlockCols
			// Halo window clamped to the array (ring included).
			wr0 := maxInt(br0-T, 0)
			wc0 := maxInt(bc0-T, 0)
			wr1 := minInt(br0+cfg.BlockRows+T, cfg.GlobalRows+2)
			wc1 := minInt(bc0+cfg.BlockCols+T, cfg.GlobalCols+2)
			rows, cols := wr1-wr0, wc1-wc0

			// Page the window in (2D doubleword DMA over the eLink).
			c.DMAStart(dma.DMA0, c.DMASetDesc(tileDesc(
				mem.DRAMBase+srcOff+mem.Addr(4*(wr0*pitch+wc0)), c.Global(stencilGridOff),
				rows, cols, pitch, cols)))
			c.DMAWait(dma.DMA0)
			stats.dramBytes += uint64(4 * rows * cols)

			// T local Jacobi iterations; the updatable window shrinks by
			// one ring per iteration, except along edges clamped at the
			// physical boundary ring, whose values are constant in time.
			at := func(r, col int) mem.Addr { return stencilGridOff + mem.Addr(4*(r*cols+col)) }
			edge := func(w, ring, k int) int {
				if w == ring {
					return 0 // physical boundary: no shrink
				}
				return k
			}
			points := 0
			for k := 1; k <= T; k++ {
				r0 := wr0 + maxInt(edge(wr0, 0, k), 1)
				r1 := wr1 - maxInt(edge(wr1, cfg.GlobalRows+2, k), 1)
				c0 := wc0 + maxInt(edge(wc0, 0, k), 1)
				c1 := wc1 - maxInt(edge(wc1, cfg.GlobalCols+2, k), 1)
				r0, r1, c0, c1 = r0-wr0, r1-wr0, c0-wc0, c1-wc0
				sram.LoadF32s(at(r0-1, c0-1), prev[c0-1:c1+1])
				for r := r0; r < r1; r++ {
					sram.LoadF32s(at(r, c0-1), cur[c0-1:c1+1])
					sram.LoadF32s(at(r+1, c0), next[c0:c1])
					for col := c0; col < c1; col++ {
						out[col] = cfg.Coefs[0]*prev[col] +
							cfg.Coefs[1]*cur[col-1] +
							cfg.Coefs[2]*cur[col] +
							cfg.Coefs[3]*cur[col+1] +
							cfg.Coefs[4]*next[col]
					}
					sram.StoreF32s(at(r, c0), out[c0:c1])
					prev, cur = cur, prev
					points += c1 - c0
				}
			}
			c.Compute(streamComputeCycles(points), uint64(points)*10)
			stats.redundantFlops += uint64(points)*10 - uint64(cfg.BlockRows*cfg.BlockCols*T*10)

			// Write the interior block back to the destination array.
			ir, ic := br0-wr0, bc0-wc0
			c.DMAStart(dma.DMA0, c.DMASetDesc(tileDesc(
				c.Global(at(ir, ic)), mem.DRAMBase+dstOff+mem.Addr(4*(br0*pitch+bc0)),
				cfg.BlockRows, cfg.BlockCols, cols, pitch)))
			c.DMAWait(dma.DMA0)
			stats.dramBytes += uint64(4 * cfg.BlockRows * cfg.BlockCols)
		}
		// Chip-wide barrier before the ping-pong arrays swap roles.
		b.Wait(c)
	}
}

// tileDesc builds a 2D descriptor moving rows x cols float32 between a
// strided source and destination.
func tileDesc(src, dst mem.Addr, rows, cols, srcPitch, dstPitch int) *dma.Desc {
	beat := 8
	inner := cols * 4 / beat
	if cols*4%beat != 0 {
		beat, inner = 4, cols
	}
	return &dma.Desc{
		Beat:           beat,
		InnerCount:     inner,
		OuterCount:     rows,
		SrcInnerStride: beat,
		DstInnerStride: beat,
		SrcOuterStride: 4*srcPitch - (inner-1)*beat,
		DstOuterStride: 4*dstPitch - (inner-1)*beat,
		Src:            src,
		Dst:            dst,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// makeStreamInput builds the global field with boundary ring.
func makeStreamInput(cfg *StreamStencilConfig) [][]float32 {
	if cfg.Initial != nil {
		if len(cfg.Initial) != cfg.GlobalRows+2 || len(cfg.Initial[0]) != cfg.GlobalCols+2 {
			panic("core: Initial field has wrong shape")
		}
		g := make([][]float32, len(cfg.Initial))
		for r := range g {
			g[r] = append([]float32(nil), cfg.Initial[r]...)
		}
		return g
	}
	rng := sim.NewRand(cfg.Seed + 1)
	g := make([][]float32, cfg.GlobalRows+2)
	for r := range g {
		g[r] = make([]float32, cfg.GlobalCols+2)
		for c := range g[r] {
			g[r][c] = rng.Float32() * 100
		}
	}
	return g
}

// StreamStencilReference computes the exact expected output: plain global
// Jacobi iteration (the overlapped-tiling kernel reproduces it exactly,
// redundant halo work and all).
func StreamStencilReference(cfg StreamStencilConfig) [][]float32 {
	if cfg.Coefs == ([5]float32{}) {
		cfg.Coefs = DefaultCoefs
	}
	g := makeStreamInput(&cfg)
	rows, cols := cfg.GlobalRows, cfg.GlobalCols
	curr := g
	next := make([][]float32, len(g))
	for r := range next {
		next[r] = append([]float32(nil), g[r]...)
	}
	for it := 0; it < cfg.Iters; it++ {
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				next[r][c] = cfg.Coefs[0]*curr[r-1][c] +
					cfg.Coefs[1]*curr[r][c-1] +
					cfg.Coefs[2]*curr[r][c] +
					cfg.Coefs[3]*curr[r][c+1] +
					cfg.Coefs[4]*curr[r+1][c]
			}
		}
		curr, next = next, curr
	}
	out := make([][]float32, rows)
	for r := 1; r <= rows; r++ {
		out[r-1] = append([]float32(nil), curr[r][1:cols+1]...)
	}
	return out
}
