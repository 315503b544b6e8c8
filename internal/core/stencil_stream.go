package core

import (
	"fmt"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sdk"
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
// value): it builds the stencil's scratchpad plan with the run's
// halo-extended block.
func (cfg *StreamStencilConfig) Validate() error {
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
	if err := stencilLayout(ext); err != nil {
		return fmt.Errorf("core: %dx%d block with T=%d halo (%d B) does not fit the scratchpad plan: %w",
			cfg.BlockRows, cfg.BlockCols, cfg.TBlock, ext, err)
	}
	gridBytes := 4 * (cfg.GlobalRows + 2) * (cfg.GlobalCols + 2)
	if 2*gridBytes > mem.DRAMSize {
		return fmt.Errorf("core: grid ping-pong needs %d B, beyond the 32 MB window", 2*gridBytes)
	}
	return nil
}

// StreamStencilResult reports a streamed run. Its TotalFlops (and so
// GFLOPS) counts interior-point updates only.
type StreamStencilResult struct {
	Summary
	// RedundantFlops counts the overlapped-halo recomputation.
	RedundantFlops uint64
	// DRAMBytes is the total traffic paged over the eLink.
	DRAMBytes uint64
	Global    [][]float32
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := cfg.stencil()
	_, field := makeStencilInput(&sc)
	r := &streamRun{
		cfg:    cfg,
		field:  field,
		dstOff: mem.Addr(4 * (cfg.GlobalRows + 2) * (cfg.GlobalCols + 2)),
		cores:  make([]streamCore, cfg.GroupRows*cfg.GroupCols),
		res:    &StreamStencilResult{},
	}
	r.rowBufs = make([]float32, len(r.cores)*r.rowBufLen())
	flops := uint64(cfg.GlobalRows) * uint64(cfg.GlobalCols) * 10 * uint64(cfg.Iters)
	// No image load is modelled for the streamed run.
	if err := r.res.run(h, launch{"stream-stencil", cfg.GroupRows, cfg.GroupCols, 0, flops}, r); err != nil {
		return nil, err
	}
	return r.res, nil
}

// streamRun is the streamed stencil's part of the host program. The
// field, with its boundary ring, ping-pongs between two DRAM arrays,
// at offset 0 and at dstOff.
type streamRun struct {
	cfg StreamStencilConfig
	// field is the initial field, ring included, row after row.
	field  []float32
	dstOff mem.Addr
	// cores and rowBufs hold each core's kernel state, in group order:
	// rowBufs has rowBufLen floats per core.
	cores   []streamCore
	rowBufs []float32
	res     *StreamStencilResult
}

// rowBufLen is the floats of a core's four row buffers, each as wide as
// a block with its halo.
func (r *streamRun) rowBufLen() int { return 4 * (r.cfg.BlockCols + 2*r.cfg.TBlock) }

// stage writes the field into both ping-pong arrays (the ring must be
// present in each; interiors get overwritten).
func (r *streamRun) stage(hp *host.Proc, _ *sdk.Workgroup) {
	hp.WriteDRAMF32(0, r.field)
	hp.WriteDRAMF32(r.dstOff, r.field)
}

func (r *streamRun) kernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int) {
	i, n := gr*w.Cols+gc, r.rowBufLen()
	streamKernel(c, w, gr, gc, &r.cfg, r.cfg.GlobalCols+2, 0, r.dstOff, &r.cores[i], r.rowBufs[i*n:(i+1)*n])
}

// gather sums the per-core traffic and reads the interior back from
// the array the last time-chunk wrote.
func (r *streamRun) gather(hp *host.Proc, _ *sdk.Workgroup) {
	cfg := &r.cfg
	res := r.res
	for i := range r.cores {
		res.DRAMBytes += r.cores[i].dramBytes
		res.RedundantFlops += r.cores[i].redundantFlops
	}
	chunks := (cfg.Iters + cfg.TBlock - 1) / cfg.TBlock
	final := mem.Addr(0)
	if chunks%2 == 1 {
		final = r.dstOff
	}
	gC := cfg.GlobalCols + 2
	out := hp.ReadDRAMF32(final, (cfg.GlobalRows+2)*gC)
	// Each row is a capped window of the one staging read, so a caller
	// appending to a row cannot spill into the next.
	res.Global = make([][]float32, cfg.GlobalRows)
	for row := 1; row <= cfg.GlobalRows; row++ {
		a, b := row*gC+1, row*gC+1+cfg.GlobalCols
		res.Global[row-1] = out[a:b:b]
	}
}

// streamCore is one core's kernel state that the run keeps: its
// private traffic counters, which the host sums after Join, and the one
// DMA0 descriptor it rewrites for every tile in and out.
type streamCore struct {
	dramBytes      uint64
	redundantFlops uint64
	tile           dma.Desc
}

// streamKernel is the per-core device program; st is the core's state
// and rowBuf its four row buffers.
func streamKernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int,
	cfg *StreamStencilConfig, pitch int, srcOff, dstOff mem.Addr, st *streamCore, rowBuf []float32) {

	b := sdk.NewBarrier(w, gr, gc)
	superR := cfg.GlobalRows / (cfg.GroupRows * cfg.BlockRows)
	superC := cfg.GlobalCols / (cfg.GroupCols * cfg.BlockCols)
	sram := c.Local()
	tile := &st.tile

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
			wr0 := max(br0-T, 0)
			wc0 := max(bc0-T, 0)
			wr1 := min(br0+cfg.BlockRows+T, cfg.GlobalRows+2)
			wc1 := min(bc0+cfg.BlockCols+T, cfg.GlobalCols+2)
			rows, cols := wr1-wr0, wc1-wc0

			// Page the window in (2D doubleword DMA over the eLink).
			c.DMAStart(dma.DMA0, c.DMASetDesc(tileDesc(tile,
				mem.DRAMBase+srcOff+mem.Addr(4*(wr0*pitch+wc0)), c.Global(stencilGridOff),
				rows, cols, pitch, cols)))
			c.DMAWait(dma.DMA0)
			st.dramBytes += uint64(4 * rows * cols)

			// T local Jacobi iterations; the updatable window shrinks by
			// one ring per iteration, except along edges clamped at the
			// physical boundary ring, whose values are constant in time.
			edge := func(w, ring, k int) int {
				if w == ring {
					return 0 // physical boundary: no shrink
				}
				return k
			}
			points := 0
			for k := 1; k <= T; k++ {
				r0 := wr0 + max(edge(wr0, 0, k), 1)
				r1 := wr1 - max(edge(wr1, cfg.GlobalRows+2, k), 1)
				c0 := wc0 + max(edge(wc0, 0, k), 1)
				c1 := wc1 - max(edge(wc1, cfg.GlobalCols+2, k), 1)
				r0, r1, c0, c1 = r0-wr0, r1-wr0, c0-wc0, c1-wc0
				jacobiRows(sram, cols, r0, r1, c0, c1, Plus, cfg.Coefs, rowBuf)
				points += (r1 - r0) * (c1 - c0)
			}
			c.Compute(streamComputeCycles(points), uint64(points)*10)
			st.redundantFlops += uint64(points)*10 - uint64(cfg.BlockRows*cfg.BlockCols*T*10)

			// Write the interior block back to the destination array.
			ir, ic := br0-wr0, bc0-wc0
			c.DMAStart(dma.DMA0, c.DMASetDesc(tileDesc(tile,
				c.Global(stencilGridOff+mem.Addr(4*(ir*cols+ic))), mem.DRAMBase+dstOff+mem.Addr(4*(br0*pitch+bc0)),
				cfg.BlockRows, cfg.BlockCols, cols, pitch)))
			c.DMAWait(dma.DMA0)
			st.dramBytes += uint64(4 * cfg.BlockRows * cfg.BlockCols)
		}
		// Chip-wide barrier before the ping-pong arrays swap roles.
		b.Wait(c)
	}
}

// tileDesc makes d a 2D descriptor moving rows x cols float32 between a
// strided source and destination, and returns it.
func tileDesc(d *dma.Desc, src, dst mem.Addr, rows, cols, srcPitch, dstPitch int) *dma.Desc {
	beat := 8
	inner := cols * 4 / beat
	if cols*4%beat != 0 {
		beat, inner = 4, cols
	}
	*d = dma.Desc{
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
	return d
}

// stencil is the one-block stencil run whose field and Jacobi
// iteration the streamed run reproduces: the overlapped-tiling kernel
// computes plain global Jacobi exactly, redundant halo work and all.
func (cfg *StreamStencilConfig) stencil() StencilConfig {
	return StencilConfig{
		Rows: cfg.GlobalRows, Cols: cfg.GlobalCols, Iters: cfg.Iters,
		GroupRows: 1, GroupCols: 1,
		Coefs: cfg.Coefs, Seed: cfg.Seed, Initial: cfg.Initial,
	}
}

// StreamStencilReference computes the exact expected output with the
// stencil's host reference.
func StreamStencilReference(cfg StreamStencilConfig) [][]float32 {
	return StencilReference(cfg.stencil())
}
