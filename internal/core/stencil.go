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

// Per-core scratchpad plan for the stencil kernel (paper §VI: code in its
// own bank, stack separate, grid in the remaining banks).
const (
	stencilCodeOff  mem.Addr = 0x0000
	stencilCodeSize          = 6 * 1024
	stencilStackOff mem.Addr = 0x1800
	stencilStackSz           = 2 * 1024
	stencilGridOff  mem.Addr = 0x2000
	stencilFlagsOff mem.Addr = 0x7D00
	// Flag words: 4 incoming iteration counters (compute done) and 4
	// incoming transfer counters, indexed by direction.
	stencilFlagsSize = 64
)

// Directions index the four stencil neighbours.
const (
	dirTop = iota
	dirBottom
	dirLeft
	dirRight
	numDirs
)

var opposite = [numDirs]int{dirBottom, dirTop, dirRight, dirLeft}

// dirOffsets in (drow, dcol) form.
var dirOffsets = [numDirs][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}

// Shape selects the 5-point stencil's geometry within the 3x3
// neighbourhood, per §VI's observation that the kernel "can be trivially
// modified to perform any 5-point stencil within a 3x3 area containing a
// grid point, such as an 'X' shaped stencil".
type Shape int

// Stencil shapes.
const (
	// Plus is the paper's star stencil: T, L, C, R, B.
	Plus Shape = iota
	// Cross uses the diagonals: NW, NE, C, SW, SE. Its halo exchange
	// needs corner values, so columns move before (widened) rows.
	Cross
)

// StencilConfig describes one stencil run.
type StencilConfig struct {
	// Rows, Cols: per-core interior grid size. For the tuned kernel Cols
	// must be a multiple of 20 (the stripe width).
	Rows, Cols int
	// Iters: grid passes (the paper evaluates 50).
	Iters int
	// GroupRows, GroupCols: workgroup shape (1x1 up to 8x8).
	GroupRows, GroupCols int
	// Comm: exchange boundary regions each iteration (Figure 6's darker
	// bars). Without it each core computes an independent replicated
	// problem (the lighter bars).
	Comm bool
	// Tuned selects the hand-scheduled assembly model; false models the
	// e-gcc compiled kernel.
	Tuned bool
	// DirectComm exchanges boundaries with CPU-issued word writes instead
	// of DMA chains (an ablation of the paper's design choice; §V shows
	// direct writes win only for small transfers).
	DirectComm bool
	// Shape selects the plus (default) or diagonal-cross stencil.
	Shape Shape
	// Coefs are the five stencil weights (T, L, C, R, B for Plus;
	// NW, NE, C, SW, SE for Cross).
	Coefs [5]float32
	// Seed for the synthetic initial temperature field.
	Seed uint64
	// Initial, when non-nil, supplies the global temperature field
	// including its fixed boundary ring: (GroupRows*Rows + 2) rows by
	// (GroupCols*Cols + 2) columns. When nil a deterministic random
	// field derived from Seed is used.
	Initial [][]float32
}

// DefaultCoefs are plausible heat-diffusion weights (sum 1).
var DefaultCoefs = [5]float32{0.125, 0.125, 0.5, 0.125, 0.125}

// Validate checks the configuration without running it (Coefs are not
// inspected; RunStencil substitutes DefaultCoefs for a zero value): it
// builds the scratchpad plan a run would use.
func (cfg *StencilConfig) Validate() error {
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.Iters <= 0 {
		return fmt.Errorf("core: non-positive stencil dimensions %+v", cfg)
	}
	if cfg.GroupRows <= 0 || cfg.GroupCols <= 0 {
		return fmt.Errorf("core: bad workgroup %dx%d", cfg.GroupRows, cfg.GroupCols)
	}
	gridBytes := 4 * (cfg.Rows + 2) * (cfg.Cols + 2)
	if err := stencilLayout(gridBytes); err != nil {
		return fmt.Errorf("core: %dx%d grid with halo (%d B) does not fit the scratchpad plan: %w",
			cfg.Rows, cfg.Cols, gridBytes, err)
	}
	if cfg.Tuned && cfg.Cols%20 != 0 {
		return fmt.Errorf("core: tuned stencil requires cols %% 20 == 0, got %d", cfg.Cols)
	}
	if cfg.Shape == Cross && cfg.DirectComm {
		return fmt.Errorf("core: the direct-write exchange does not carry corner halo values; Cross requires the DMA path")
	}
	return nil
}

// stencilLayout builds and checks the scratchpad plan of a stencil
// kernel whose grid, halo included, takes gridBytes bytes.
func stencilLayout(gridBytes int) error {
	l := mem.NewLayout()
	steps := []struct {
		name string
		off  mem.Addr
		size int
	}{
		{"code", stencilCodeOff, stencilCodeSize},
		{"stack", stencilStackOff, stencilStackSz},
		{"grid", stencilGridOff, gridBytes},
		{"flags", stencilFlagsOff, stencilFlagsSize},
	}
	for _, s := range steps {
		if _, err := l.PlaceAt(s.name, s.off, s.size); err != nil {
			return err
		}
	}
	return sdk.ReserveSDK(l)
}

// StencilResult reports a run.
type StencilResult struct {
	Summary
	// Global holds the gathered interior grid (GroupRows*Rows rows by
	// GroupCols*Cols cols) when cfg.Comm is set; for replicated runs it
	// holds core (0,0)'s interior.
	Global [][]float32
}

// stencilKernel is the device-side program for one core. desc holds
// its boundary-exchange descriptors, one slot per direction, and rowBuf
// its sweep's four row buffers: state the paper's kernel keeps in the
// core's own scratchpad, which the run keeps per core.
func stencilKernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int, cfg *StencilConfig,
	desc *[numDirs]dma.Desc, rowBuf []float32) {
	pitch := cfg.Cols + 2
	rows := cfg.Rows
	gridAt := func(r, col int) mem.Addr {
		return stencilGridOff + mem.Addr(4*(r*pitch+col))
	}
	cycles, flops := StencilComputeModel(rows, cfg.Cols, cfg.Tuned)

	// Neighbour discovery (SDK e_neighbor_id, Clamp mode: grid edges have
	// no neighbour).
	var nbr [numDirs]int
	var has [numDirs]bool
	for d := 0; d < numDirs; d++ {
		nbr[d], has[d] = w.Neighbour(gr, gc, dirOffsets[d][0], dirOffsets[d][1], sdk.Clamp)
		if !cfg.Comm {
			has[d] = false
		}
	}

	// Build the boundary-exchange descriptor chains once, exactly as
	// Listing 2 does: DMA0 chains bottom+top edge rows as doubleword
	// transfers; DMA1 chains right+left edge columns as 2D word
	// transfers. Each direction's descriptor is written in its slot.
	var chain0, chain1 *dma.Desc
	if cfg.Comm && !cfg.DirectComm {
		mkRow := func(dir, srcRow, dstRow int) *dma.Desc {
			d := &desc[dir]
			d.Set1D(gridAt(srcRow, 1),
				c.Chip().Map().GlobalOf(nbr[dir], gridAt(dstRow, 1)), 4*cfg.Cols, 8)
			return c.DMASetDesc(d)
		}
		mkCol := func(dir, srcCol, dstCol int) *dma.Desc {
			d := &desc[dir]
			*d = dma.Desc{
				Beat: 4, InnerCount: 1, OuterCount: rows,
				SrcOuterStride: 4 * pitch, DstOuterStride: 4 * pitch,
				Src: gridAt(1, srcCol),
				Dst: c.Chip().Map().GlobalOf(nbr[dir], gridAt(1, dstCol)),
			}
			return c.DMASetDesc(d)
		}
		if has[dirBottom] {
			chain0 = mkRow(dirBottom, rows, 0) // my last row -> their halo row 0
		}
		if has[dirTop] {
			d := mkRow(dirTop, 1, rows+1) // my first row -> their halo row R+1
			d.Chain, chain0 = chain0, d
		}
		if has[dirRight] {
			chain1 = mkCol(dirRight, cfg.Cols, 0)
		}
		if has[dirLeft] {
			d := mkCol(dirLeft, 1, cfg.Cols+1)
			d.Chain, chain1 = chain1, d
		}
		if cfg.Shape == Cross {
			// Diagonal stencils need corner halo values: widen the row
			// transfers to span the halo columns (filled by the column
			// exchange, which therefore must run first). The widened
			// rows are rebuilt in the row slots.
			mkWideRow := func(dir, srcRow, dstRow int) *dma.Desc {
				d := &desc[dir]
				d.Set1D(gridAt(srcRow, 0),
					c.Chip().Map().GlobalOf(nbr[dir], gridAt(dstRow, 0)), 4*pitch, 8)
				return c.DMASetDesc(d)
			}
			chain0 = nil
			if has[dirBottom] {
				chain0 = mkWideRow(dirBottom, rows, 0)
			}
			if has[dirTop] {
				d := mkWideRow(dirTop, 1, rows+1)
				d.Chain, chain0 = chain0, d
			}
		}
	}

	sram := c.Local()
	// The sweep's row buffers: prev is the rolling copy of the
	// pre-update row above, cur the pre-update row, next the inputs
	// read from the row below and out the updated row.
	prev, cur, next, out := rowBuf[:pitch], rowBuf[pitch:2*pitch], rowBuf[2*pitch:3*pitch], rowBuf[3*pitch:4*pitch]
	signal := func(base mem.Addr, iter uint32) {
		for d := 0; d < numDirs; d++ {
			if has[d] {
				nr, nc := c.Chip().Map().CoreCoords(nbr[d])
				c.StoreGlobal32(c.GlobalOn(nr, nc, base+mem.Addr(4*opposite[d])), iter)
			}
		}
	}
	await := func(base mem.Addr, iter uint32) {
		for d := 0; d < numDirs; d++ {
			if has[d] {
				c.WaitLocal32GE(base+mem.Addr(4*d), iter)
			}
		}
	}

	for iter := 1; iter <= cfg.Iters; iter++ {
		// Functional sweep: the register-buffered in-place kernel has
		// Jacobi semantics (all five inputs are pre-update values; the
		// already-updated row above survives in registers), so the sweep
		// keeps a one-row rolling buffer of pre-update values.
		// Rows move through the bulk accessors, which charge what the
		// per-point loads and stores of the modelled kernel cost.
		sram.LoadF32s(gridAt(0, 0), prev)
		for r := 1; r <= rows; r++ {
			sram.LoadF32s(gridAt(r, 0), cur)
			if cfg.Shape == Cross {
				// Each point loads its lower-left and lower-right
				// neighbours: two reads of the row below, which land on
				// the same values where they overlap.
				sram.LoadF32s(gridAt(r+1, 0), next[:cfg.Cols])
				sram.LoadF32s(gridAt(r+1, 2), next[2:cfg.Cols+2])
				for col := 1; col <= cfg.Cols; col++ {
					out[col] = cfg.Coefs[0]*prev[col-1] +
						cfg.Coefs[1]*prev[col+1] +
						cfg.Coefs[2]*cur[col] +
						cfg.Coefs[3]*next[col-1] +
						cfg.Coefs[4]*next[col+1]
				}
			} else {
				sram.LoadF32s(gridAt(r+1, 1), next[1:cfg.Cols+1])
				for col := 1; col <= cfg.Cols; col++ {
					out[col] = cfg.Coefs[0]*prev[col] +
						cfg.Coefs[1]*cur[col-1] +
						cfg.Coefs[2]*cur[col] +
						cfg.Coefs[3]*cur[col+1] +
						cfg.Coefs[4]*next[col]
				}
			}
			sram.StoreF32s(gridAt(r, 1), out[1:cfg.Cols+1])
			prev, cur = cur, prev
		}
		c.Compute(cycles, flops)

		if !cfg.Comm {
			continue
		}
		// Listing 2: synchronize with the four neighbours, move the edge
		// data, then synchronize on transfer completion.
		signal(stencilFlagsOff, uint32(iter))
		await(stencilFlagsOff, uint32(iter))
		if cfg.DirectComm {
			// Ablation path: the CPU copies every edge word itself.
			remote := func(d int, off mem.Addr) mem.Addr {
				nr, nc := c.Chip().Map().CoreCoords(nbr[d])
				return c.GlobalOn(nr, nc, off)
			}
			if has[dirBottom] {
				c.CopyWordsTo(remote(dirBottom, gridAt(0, 1)), gridAt(rows, 1), cfg.Cols)
			}
			if has[dirTop] {
				c.CopyWordsTo(remote(dirTop, gridAt(rows+1, 1)), gridAt(1, 1), cfg.Cols)
			}
			if has[dirRight] {
				for r := 1; r <= rows; r++ {
					c.CopyWordsTo(remote(dirRight, gridAt(r, 0)), gridAt(r, cfg.Cols), 1)
				}
			}
			if has[dirLeft] {
				for r := 1; r <= rows; r++ {
					c.CopyWordsTo(remote(dirLeft, gridAt(r, cfg.Cols+1)), gridAt(r, 1), 1)
				}
			}
		} else if cfg.Shape == Cross {
			// Columns first; once the left/right exchanges are complete
			// on both sides, the widened rows carry valid corner values.
			if chain1 != nil {
				c.DMAStart(dma.DMA1, chain1)
				c.DMAWait(dma.DMA1)
			}
			for _, d := range []int{dirLeft, dirRight} {
				if has[d] {
					nr, nc := c.Chip().Map().CoreCoords(nbr[d])
					c.StoreGlobal32(c.GlobalOn(nr, nc, stencilFlagsOff+32+mem.Addr(4*opposite[d])), uint32(iter))
				}
			}
			for _, d := range []int{dirLeft, dirRight} {
				if has[d] {
					c.WaitLocal32GE(stencilFlagsOff+32+mem.Addr(4*d), uint32(iter))
				}
			}
			if chain0 != nil {
				c.DMAStart(dma.DMA0, chain0)
				c.DMAWait(dma.DMA0)
			}
		} else {
			if chain0 != nil {
				c.DMAStart(dma.DMA0, chain0)
			}
			if chain1 != nil {
				c.DMAStart(dma.DMA1, chain1)
			}
			if chain0 != nil {
				c.DMAWait(dma.DMA0)
			}
			if chain1 != nil {
				c.DMAWait(dma.DMA1)
			}
		}
		signal(stencilFlagsOff+16, uint32(iter))
		await(stencilFlagsOff+16, uint32(iter))
	}
}

// RunStencil performs a full host-orchestrated stencil experiment.
func RunStencil(h *host.Host, cfg StencilConfig) (*StencilResult, error) {
	if cfg.Coefs == ([5]float32{}) {
		cfg.Coefs = DefaultCoefs
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	global, _ := makeStencilInput(&cfg)
	cores := cfg.GroupRows * cfg.GroupCols
	r := &stencilRun{
		cfg:     cfg,
		global:  global,
		descs:   make([][numDirs]dma.Desc, cores),
		rowBufs: make([]float32, cores*4*(cfg.Cols+2)),
		res:     &StencilResult{},
	}
	flops := uint64(cfg.GroupRows*cfg.GroupCols) * uint64(cfg.Rows) * uint64(cfg.Cols) * 10 * uint64(cfg.Iters)
	if err := r.res.run(h, launch{"stencil", cfg.GroupRows, cfg.GroupCols, stencilCodeSize, flops}, r); err != nil {
		return nil, err
	}
	return r.res, nil
}

// stencilRun is the stencil's part of the host program.
type stencilRun struct {
	cfg    StencilConfig
	global [][]float32
	// descs and rowBufs hold each core's kernel state, in group order:
	// its descriptors and its four row buffers of Cols+2 floats.
	descs   [][numDirs]dma.Desc
	rowBufs []float32
	res     *StencilResult
}

// stage writes each core's grid block, interior plus halo, directly
// into its local memory.
func (r *stencilRun) stage(hp *host.Proc, w *sdk.Workgroup) {
	cfg := &r.cfg
	pitch := cfg.Cols + 2
	block := make([]float32, (cfg.Rows+2)*pitch) // reused: the write copies it
	for gr := 0; gr < cfg.GroupRows; gr++ {
		for gc := 0; gc < cfg.GroupCols; gc++ {
			for row := 0; row < cfg.Rows+2; row++ {
				gRow := gr*cfg.Rows + row
				for col := 0; col < pitch; col++ {
					gCol := gc*cfg.Cols + col
					block[row*pitch+col] = r.global[gRow][gCol]
				}
			}
			hp.WriteCoreF32(w.CoreIndex(gr, gc), stencilGridOff, block)
		}
	}
}

func (r *stencilRun) kernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int) {
	i, n := gr*w.Cols+gc, 4*(r.cfg.Cols+2)
	stencilKernel(c, w, gr, gc, &r.cfg, &r.descs[i], r.rowBufs[i*n:(i+1)*n])
}

// gather reads back the global interior, or core (0,0)'s for a
// replicated run.
func (r *stencilRun) gather(hp *host.Proc, w *sdk.Workgroup) {
	cfg := &r.cfg
	pitch := cfg.Cols + 2
	res := r.res
	blk := make([]float32, (cfg.Rows+2)*pitch) // reused for every core
	if cfg.Comm {
		res.Global, _ = grid(cfg.GroupRows*cfg.Rows, cfg.GroupCols*cfg.Cols)
		for gr := 0; gr < cfg.GroupRows; gr++ {
			for gc := 0; gc < cfg.GroupCols; gc++ {
				hp.ReadCoreF32(w.CoreIndex(gr, gc), stencilGridOff, blk)
				for row := 1; row <= cfg.Rows; row++ {
					copy(res.Global[gr*cfg.Rows+row-1][gc*cfg.Cols:], blk[row*pitch+1:row*pitch+1+cfg.Cols])
				}
			}
		}
		return
	}
	hp.ReadCoreF32(w.CoreIndex(0, 0), stencilGridOff, blk)
	res.Global, _ = grid(cfg.Rows, cfg.Cols)
	for row := 1; row <= cfg.Rows; row++ {
		copy(res.Global[row-1], blk[row*pitch+1:row*pitch+1+cfg.Cols])
	}
}

// grid returns a zeroed rows x cols field whose rows share one backing
// array, and that array, the rows end to end; each row's capacity ends
// at its own last element.
func grid(rows, cols int) ([][]float32, []float32) {
	backing := make([]float32, rows*cols)
	g := make([][]float32, rows)
	for r := range g {
		g[r] = backing[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return g, backing
}

// makeStencilInput builds the deterministic global temperature field,
// including the fixed boundary ring (and inter-block halo seams, which
// are simply interior values of the neighbouring block). The rows are a
// fresh copy sharing one backing array, which it returns as flat.
func makeStencilInput(cfg *StencilConfig) (rows [][]float32, flat []float32) {
	gRows := cfg.GroupRows*cfg.Rows + 2
	gCols := cfg.GroupCols*cfg.Cols + 2
	if cfg.Initial != nil {
		if len(cfg.Initial) != gRows || len(cfg.Initial[0]) != gCols {
			panic(fmt.Sprintf("core: Initial field is %dx%d, want %dx%d (interior plus boundary ring)",
				len(cfg.Initial), len(cfg.Initial[0]), gRows, gCols))
		}
		g, flat := grid(gRows, gCols)
		for r := range g {
			if len(cfg.Initial[r]) != gCols {
				panic(fmt.Sprintf("core: Initial field row %d has %d values, want %d", r, len(cfg.Initial[r]), gCols))
			}
			copy(g[r], cfg.Initial[r])
		}
		return g, flat
	}
	rng := sim.NewRand(cfg.Seed + 1)
	g, flat := grid(gRows, gCols)
	for i := range flat {
		flat[i] = rng.Float32() * 100
	}
	return g, flat
}

// StencilReference runs the same Jacobi iteration on the host for
// verification: the distributed kernel's semantics are exactly global
// Jacobi with a fixed boundary ring (see stencilKernel). For replicated
// (Comm=false) runs each core's block iterates with frozen halos, which
// is what a single-block reference with frozen edges computes.
func StencilReference(cfg StencilConfig) [][]float32 {
	if cfg.Coefs == ([5]float32{}) {
		cfg.Coefs = DefaultCoefs
	}
	g, _ := makeStencilInput(&cfg)
	rows := cfg.GroupRows * cfg.Rows
	cols := cfg.GroupCols * cfg.Cols
	if !cfg.Comm {
		rows, cols = cfg.Rows, cfg.Cols
	}
	cur := g
	next := make([][]float32, len(g))
	for r := range next {
		next[r] = append([]float32(nil), g[r]...)
	}
	for it := 0; it < cfg.Iters; it++ {
		for r := 1; r <= rows; r++ {
			for c := 1; c <= cols; c++ {
				if cfg.Shape == Cross {
					next[r][c] = cfg.Coefs[0]*cur[r-1][c-1] +
						cfg.Coefs[1]*cur[r-1][c+1] +
						cfg.Coefs[2]*cur[r][c] +
						cfg.Coefs[3]*cur[r+1][c-1] +
						cfg.Coefs[4]*cur[r+1][c+1]
				} else {
					next[r][c] = cfg.Coefs[0]*cur[r-1][c] +
						cfg.Coefs[1]*cur[r][c-1] +
						cfg.Coefs[2]*cur[r][c] +
						cfg.Coefs[3]*cur[r][c+1] +
						cfg.Coefs[4]*cur[r+1][c]
				}
			}
		}
		cur, next = next, cur
	}
	out := make([][]float32, rows)
	for r := 1; r <= rows; r++ {
		out[r-1] = append([]float32(nil), cur[r][1:cols+1]...)
	}
	return out
}
