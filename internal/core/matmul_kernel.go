package core

import (
	"fmt"
	"sync"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
)

// cannon is the per-core state of the on-chip Cannon multiplication.
type cannon struct {
	c          *ecore.Core
	w          *sdk.Workgroup
	gr, gc     int
	m, n, k    int
	plan       *matmulPlan
	tuned      bool
	left, up   int    // rotation targets (torus)
	right, dwn int    // rotation sources
	round      uint32 // completed compute rounds, monotone over the run
	parity     int    // half-buffer scheme base parity
	cur        int    // double-buffer scheme current buffer
	compute    sim.Time
	transfer   sim.Time
	desc       [2]dma.Desc // one descriptor per channel: rotations and off-chip tiles
}

func newCannon(c *ecore.Core, w *sdk.Workgroup, gr, gc int, m, n, k int, plan *matmulPlan, tuned bool) *cannon {
	ca := &cannon{c: c, w: w, gr: gr, gc: gc, m: m, n: n, k: k, plan: plan, tuned: tuned}
	ca.left, _ = w.Neighbour(gr, gc, 0, -1, sdk.Wrap)
	ca.right, _ = w.Neighbour(gr, gc, 0, 1, sdk.Wrap)
	ca.up, _ = w.Neighbour(gr, gc, -1, 0, sdk.Wrap)
	ca.dwn, _ = w.Neighbour(gr, gc, 1, 0, sdk.Wrap)
	return ca
}

// aBase and bBase return the current operand bases.
func (ca *cannon) aBase() mem.Addr {
	if ca.plan.scheme == schemeHalf {
		return ca.plan.a0 + mem.Addr(ca.parity)*matmulHalfSz
	}
	if ca.cur == 0 {
		return ca.plan.a0
	}
	return ca.plan.a1
}

func (ca *cannon) bBase() mem.Addr {
	if ca.plan.scheme == schemeHalf {
		return ca.plan.b0 + mem.Addr(ca.parity)*matmulHalfSz
	}
	if ca.cur == 0 {
		return ca.plan.b0
	}
	return ca.plan.b1
}

// post stores a flag value into a neighbour's flag slot.
func (ca *cannon) post(target int, slot int, v uint32) {
	r, c := ca.c.Chip().Map().CoreCoords(target)
	ca.c.StoreGlobal32(ca.c.GlobalOn(r, c, matmulFlagsOff+mem.Addr(4*slot)), v)
}

// await blocks until the local flag slot reaches v.
func (ca *cannon) await(slot int, v uint32) {
	ca.c.WaitLocal32GE(matmulFlagsOff+mem.Addr(4*slot), v)
}

// blockCompute performs C += A*B functionally and charges the pipeline
// model's cycles.
func (ca *cannon) blockCompute() {
	start := ca.c.Now()
	mulBlock(ca.c.Local(), ca.aBase(), ca.bBase(), ca.plan.c, ca.m, ca.n, ca.k)
	cycles, flops := MatmulBlockModel(ca.m, ca.n, ca.k, ca.tuned)
	ca.c.Compute(cycles, flops)
	ca.compute += ca.c.Now() - start
}

// mulScratch recycles mulBlock's operand buffers across blocks, cores
// and runs.
var mulScratch = sync.Pool{New: func() any { return new([]float32) }}

// mulBlock performs C += A*B on the row-major float32 blocks at a (m x n),
// b (n x k) and c (m x k) in sram. It decodes the three blocks once, runs
// the multiply-adds in the modelled kernel's i, l, j order with its float
// expression, and stores C once - so the result is bit-identical to the
// word-by-word loop - then charges the SRAM traffic that loop makes
// beyond the bulk decode and store: a C load, a B load and a C store per
// multiply-add against one pass over B and two over C.
func mulBlock(sram *mem.SRAM, a, b, c mem.Addr, m, n, k int) {
	buf := mulScratch.Get().(*[]float32)
	need := m*n + n*k + m*k
	if cap(*buf) < need {
		*buf = make([]float32, need)
	}
	av, bv, cv := (*buf)[:m*n], (*buf)[m*n:m*n+n*k], (*buf)[m*n+n*k:need]
	sram.LoadF32s(a, av)
	sram.LoadF32s(b, bv)
	sram.LoadF32s(c, cv)
	for i := 0; i < m; i++ {
		ci := cv[i*k : (i+1)*k]
		for l := 0; l < n; l++ {
			x := av[i*n+l]
			bl := bv[l*k : (l+1)*k]
			for j := range ci {
				ci[j] = ci[j] + x*bl[j]
			}
		}
	}
	sram.StoreF32s(c, cv)
	sram.Charge(12*m*n*k - 4*n*k - 8*m*k)
	mulScratch.Put(buf)
}

// zeroC clears the product block (doubleword stores: 2 floats/cycle).
func (ca *cannon) zeroC() {
	sram := ca.c.Local()
	for i := 0; i < ca.m*ca.k; i++ {
		sram.StoreF32(ca.plan.c+mem.Addr(4*i), 0)
	}
	ca.c.Compute(uint64(ca.m*ca.k/2+10), 0)
}

// sendBlock DMA-transfers sz bytes from a local offset to a neighbour's
// offset, rewriting the channel's descriptor each round as the
// alternating buffer addresses require.
func (ca *cannon) sendBlock(ch dma.Chan, target int, src, dst mem.Addr, sz int) {
	r, c := ca.c.Chip().Map().CoreCoords(target)
	d := &ca.desc[ch]
	d.Set1D(src, ca.c.GlobalOn(r, c, dst), sz, 8)
	ca.c.DMAStart(ch, ca.c.DMASetDesc(d))
	ca.c.DMAWait(ch)
}

// rotate performs one Cannon rotation (A one step left, B one step up)
// after compute round r, using the plan's buffering scheme.
func (ca *cannon) rotate() {
	start := ca.c.Now()
	r := ca.round
	aSz, bSz := 4*ca.m*ca.n, 4*ca.n*ca.k
	switch ca.plan.scheme {
	case schemeDouble:
		// A neighbour's spare buffer may only be overwritten once the
		// neighbour has retired the round that last touched it: round
		// r-1's compute read it and round r-1's rotation forwarded out
		// of it. The flagFwd credit is granted only after a round's
		// sends complete, so a core arriving here early - off-chip
		// tile loads serialize over the eLink and skew start times by
		// whole DMA lengths - blocks until the target's forwards have
		// drained instead of racing them.
		if r >= 2 {
			ca.await(flagFwdFromLeft, r-1)
			ca.await(flagFwdFromUp, r-1)
		}
		spareA, spareB := ca.plan.a1, ca.plan.b1
		if ca.cur == 1 {
			spareA, spareB = ca.plan.a0, ca.plan.b0
		}
		ca.sendBlock(dma.DMA0, ca.left, ca.aBase(), spareA, aSz)
		ca.sendBlock(dma.DMA1, ca.up, ca.bBase(), spareB, bSz)
		// Send credit: both forwards out of our current buffers are
		// complete, so the cores that DMA into us may overwrite them.
		ca.post(ca.right, flagFwdFromLeft, r)
		ca.post(ca.dwn, flagFwdFromUp, r)
		ca.post(ca.left, flagArrAFromRight, r)
		ca.post(ca.up, flagArrBFromBelow, r)
		ca.await(flagArrAFromRight, r)
		ca.await(flagArrBFromBelow, r)
		ca.cur ^= 1
	case schemeHalf:
		// The paper's §VII alternate buffering scheme (Figures 10-13):
		// 2 KB halves leapfrog through the adjacent rotation buffer, with
		// the base pointer sliding by 2 KB each round. Phase 1 may begin
		// only once the target has finished this round's compute (its
		// buffer geometry must agree with ours).
		ca.await(flagCDFromLeft, r)
		ca.await(flagCDFromUp, r)
		a := ca.aBase()
		var a1src, a1dst, a2src, a2dst mem.Addr
		if ca.parity == 0 {
			a1src, a1dst = a+matmulHalfSz, a+2*matmulHalfSz // lower half -> buffer
			a2src, a2dst = a, a+matmulHalfSz                // upper half -> vacated lower home
		} else {
			a1src, a1dst = a, a-matmulHalfSz
			a2src, a2dst = a+matmulHalfSz, a
		}
		off := ca.plan.b0 - ca.plan.a0 // B region uses the same geometry
		// Phase 1: halves into the neighbours' free 2 KB regions.
		ca.sendBlock(dma.DMA0, ca.left, a1src, a1dst, matmulHalfSz)
		ca.sendBlock(dma.DMA1, ca.up, a1src+off, a1dst+off, matmulHalfSz)
		ca.post(ca.right, flagP1AFromLeft, r)
		ca.post(ca.dwn, flagP1BFromUp, r)
		// Phase 2 may only overwrite the halves our targets have vacated.
		ca.await(flagP1AFromLeft, r)
		ca.await(flagP1BFromUp, r)
		ca.sendBlock(dma.DMA0, ca.left, a2src, a2dst, matmulHalfSz)
		ca.sendBlock(dma.DMA1, ca.up, a2src+off, a2dst+off, matmulHalfSz)
		ca.post(ca.left, flagArrAFromRight, r)
		ca.post(ca.up, flagArrBFromBelow, r)
		ca.await(flagArrAFromRight, r)
		ca.await(flagArrBFromBelow, r)
		ca.parity ^= 1
	}
	ca.transfer += ca.c.Now() - start
}

// multiply runs g compute rounds with g-1 rotations: one on-chip block
// product C += A*B distributed over the torus. Every round posts a
// retirement counter to the neighbours that write into this core:
// schemeHalf posts compute-done right after compute (its phase-1 gate
// needs the current round's buffer geometry), while schemeDouble grants
// the flagFwd send credit only once the round's forwards are also done
// (inside rotate; on a pass's final, rotation-less round there is
// nothing in flight, so the credit follows compute directly - the next
// off-chip tile pass's first rotation gates on it).
func (ca *cannon) multiply() {
	g := ca.w.Rows
	for step := 0; step < g; step++ {
		ca.round++
		ca.blockCompute()
		if g > 1 && ca.plan.scheme == schemeHalf {
			ca.post(ca.right, flagCDFromLeft, ca.round)
			ca.post(ca.dwn, flagCDFromUp, ca.round)
		}
		if step < g-1 {
			ca.rotate()
		} else if g > 1 && ca.plan.scheme == schemeDouble {
			ca.post(ca.right, flagFwdFromLeft, ca.round)
			ca.post(ca.dwn, flagFwdFromUp, ca.round)
		}
	}
}

// --- On-chip driver (§VII level 2, Table V) ---

func runMatmulOnChip(h *host.Host, cfg MatmulConfig) (*MatmulResult, error) {
	m, n, k, err := cfg.blockDims()
	if err != nil {
		return nil, err
	}
	plan, err := planMatmul(m, n, k, cfg.G)
	if err != nil {
		return nil, err
	}
	g := cfg.G
	w, err := sdk.NewWorkgroup(h.Chip(), 0, 0, g, g)
	if err != nil {
		return nil, err
	}
	a, b := makeMatmulInput(&cfg)
	res := &MatmulResult{}

	h.Spawn("matmul-host", func(hp *host.Proc) {
		cores := make([]int, 0, g*g)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				cores = append(cores, w.CoreIndex(i, j))
			}
		}
		hp.LoadImage(cores, matmulCodeSize)
		// Distribute with Cannon's initial skew: core (i,j) gets A block
		// (i, (i+j) mod g) and B block ((i+j) mod g, j).
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				s := (i + j) % g
				hp.WriteCoreF32(w.CoreIndex(i, j), plan.a0, subBlock(a, cfg.N, i*m, s*n, m, n))
				hp.WriteCoreF32(w.CoreIndex(i, j), plan.b0, subBlock(b, cfg.K, s*n, j*k, n, k))
			}
		}

		start := hp.Now()
		// One slot per core, in group order; the host sums them after
		// Join.
		cannons := make([]*cannon, g*g)
		procs := w.Launch("matmul", func(c *ecore.Core, gr, gc int) {
			ca := newCannon(c, w, gr, gc, m, n, k, plan, cfg.Tuned)
			cannons[gr*g+gc] = ca
			ca.zeroC()
			ca.multiply()
		})
		hp.Join(procs)
		res.Elapsed = hp.Now() - start
		for _, ca := range cannons {
			res.ComputeTime += ca.compute
			res.TransferTime += ca.transfer
		}

		res.C = make([]float32, cfg.M*cfg.K)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				blk := hp.ReadCoreF32(w.CoreIndex(i, j), plan.c, m*k)
				pasteBlock(res.C, cfg.K, i*m, j*k, m, k, blk)
			}
		}
	})
	if err := h.Chip().Engine().Run(); err != nil {
		return nil, err
	}
	finishMatmulResult(h, res, &cfg, g*g)
	return res, nil
}

// --- Off-chip driver (§VII level 3, Table VI) ---

// DRAM staging offsets.
func matmulDRAMOffsets(cfg *MatmulConfig) (aOff, bOff, cOff mem.Addr) {
	aOff = 0
	bOff = aOff + mem.Addr(4*cfg.M*cfg.N)
	cOff = bOff + mem.Addr(4*cfg.N*cfg.K)
	return
}

func runMatmulOffChip(h *host.Host, cfg MatmulConfig) (*MatmulResult, error) {
	if cfg.M != cfg.N || cfg.N != cfg.K {
		return nil, fmt.Errorf("core: off-chip matmul supports square matrices, got %dx%dx%d",
			cfg.M, cfg.N, cfg.K)
	}
	g := cfg.G
	G := cfg.M
	// Per-core edge: the largest of {32, 24, 16, 8} that divides G/g,
	// unless the configuration pins one (as the paper did with 24 for
	// 1536x1536).
	edge := 0
	if cfg.OffChipEdge != 0 {
		edge = cfg.OffChipEdge
		if edge < 1 || edge > 32 || (G/g)%edge != 0 {
			return nil, fmt.Errorf("core: off-chip tile edge %d does not divide per-group share %d", edge, G/g)
		}
	} else {
		for _, e := range []int{32, 24, 16, 8} {
			if (G/g)%e == 0 {
				edge = e
				break
			}
		}
	}
	if edge == 0 {
		return nil, fmt.Errorf("core: matrix edge %d not tileable over a %dx%d group", G, g, g)
	}
	n := edge
	S := g * n // on-chip tile edge
	Q := G / S // tiles per matrix dimension
	plan, err := planMatmul(n, n, n, g)
	if err != nil {
		return nil, err
	}
	w, err := sdk.NewWorkgroup(h.Chip(), 0, 0, g, g)
	if err != nil {
		return nil, err
	}
	aOff, bOff, cOff := matmulDRAMOffsets(&cfg)
	if int(cOff)+4*cfg.M*cfg.K > mem.DRAMSize {
		return nil, fmt.Errorf("core: %d^2 operands exceed the 32 MB shared window", G)
	}
	a, b := makeMatmulInput(&cfg)
	res := &MatmulResult{}

	h.Spawn("matmul-host", func(hp *host.Proc) {
		cores := make([]int, 0, g*g)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				cores = append(cores, w.CoreIndex(i, j))
			}
		}
		hp.LoadImage(cores, matmulCodeSize)
		hp.WriteDRAMF32(aOff, a)
		hp.WriteDRAMF32(bOff, b)

		start := hp.Now()
		// One slot per core, in group order; the host sums them after
		// Join.
		cannons := make([]*cannon, g*g)
		procs := w.Launch("matmul", func(c *ecore.Core, gr, gc int) {
			ca := newCannon(c, w, gr, gc, n, n, n, plan, cfg.Tuned)
			cannons[gr*g+gc] = ca
			offChipKernel(ca, &cfg, Q, S, aOff, bOff, cOff)
		})
		hp.Join(procs)
		res.Elapsed = hp.Now() - start
		for _, ca := range cannons {
			res.ComputeTime += ca.compute
			res.TransferTime += ca.transfer
		}
		res.C = hp.ReadDRAMF32(cOff, cfg.M*cfg.K)
	})
	if err := h.Chip().Engine().Run(); err != nil {
		return nil, err
	}
	finishMatmulResult(h, res, &cfg, g*g)
	return res, nil
}

// offChipKernel is the device-side top level: page tile operands in from
// shared memory, run the on-chip product, page the C tile back out. Each
// tile transfer refills its channel's rotation descriptor in place: the
// transfer waits for its channel before returning, so the descriptor is
// free again.
func offChipKernel(ca *cannon, cfg *MatmulConfig, Q, S int, aOff, bOff, cOff mem.Addr) {
	g := ca.w.Rows
	n := ca.n
	G := cfg.M
	readTile := func(ch dma.Chan, dramBase mem.Addr, row, col int, local mem.Addr) {
		t0 := ca.c.Now()
		src := dramBase + mem.Addr(4*(row*G+col))
		d := &ca.desc[ch]
		*d = dma.Desc{
			Beat:           8,
			InnerCount:     n / 2,
			OuterCount:     n,
			SrcInnerStride: 8,
			DstInnerStride: 8,
			SrcOuterStride: 4*G - (n/2-1)*8,
			DstOuterStride: 8,
			Src:            mem.DRAMBase + src,
			Dst:            ca.c.Global(local),
		}
		ca.c.DMASetDesc(d)
		ca.c.DMAStart(ch, d)
		ca.c.DMAWait(ch)
		ca.transfer += ca.c.Now() - t0
	}
	writeTile := func(dramBase mem.Addr, row, col int, local mem.Addr) {
		t0 := ca.c.Now()
		dst := dramBase + mem.Addr(4*(row*G+col))
		d := &ca.desc[dma.DMA0]
		*d = dma.Desc{
			Beat:           8,
			InnerCount:     n / 2,
			OuterCount:     n,
			SrcInnerStride: 8,
			DstInnerStride: 8,
			SrcOuterStride: 8,
			DstOuterStride: 4*G - (n/2-1)*8,
			Src:            ca.c.Global(local),
			Dst:            mem.DRAMBase + dst,
		}
		ca.c.DMASetDesc(d)
		ca.c.DMAStart(dma.DMA0, d)
		ca.c.DMAWait(dma.DMA0)
		ca.transfer += ca.c.Now() - t0
	}

	i, j := ca.gr, ca.gc
	for bi := 0; bi < Q; bi++ {
		for bj := 0; bj < Q; bj++ {
			ca.zeroC()
			for bk := 0; bk < Q; bk++ {
				s := (i + j) % g
				readTile(dma.DMA0, aOff, bi*S+i*n, bk*S+s*n, ca.aBase())
				readTile(dma.DMA1, bOff, bk*S+s*n, bj*S+j*n, ca.bBase())
				ca.multiply()
			}
			writeTile(cOff, bi*S+i*n, bj*S+j*n, ca.plan.c)
		}
	}
}

// --- shared helpers ---

func subBlock(m []float32, pitch, r0, c0, rows, cols int) []float32 {
	out := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		copy(out[r*cols:(r+1)*cols], m[(r0+r)*pitch+c0:(r0+r)*pitch+c0+cols])
	}
	return out
}

func pasteBlock(m []float32, pitch, r0, c0, rows, cols int, blk []float32) {
	for r := 0; r < rows; r++ {
		copy(m[(r0+r)*pitch+c0:(r0+r)*pitch+c0+cols], blk[r*cols:(r+1)*cols])
	}
}

func finishMatmulResult(h *host.Host, res *MatmulResult, cfg *MatmulConfig, cores int) {
	res.TotalFlops = 2 * uint64(cfg.M) * uint64(cfg.N) * uint64(cfg.K)
	if res.Elapsed > 0 {
		res.GFLOPS = float64(res.TotalFlops) / res.Elapsed.Nanoseconds()
		res.PctPeak = 100 * res.GFLOPS / peakGFLOPS(cores)
	}
	res.NoC = captureNoC(h)
}
