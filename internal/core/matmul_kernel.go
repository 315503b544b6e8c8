package core

import (
	"sync"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
)

// blockCore is the per-core state both on-chip algorithms share: the
// core's place in the group, its m x n x k block and scratchpad plan,
// its flag words, one DMA descriptor per channel, and its Table VI
// decomposition - the time it spent in block compute and in transfers.
type blockCore struct {
	c        *ecore.Core
	w        *sdk.Workgroup
	gr, gc   int
	m, n, k  int
	plan     *matmulPlan
	tuned    bool
	flags    sdk.Flags   // the slots at matmulFlagsOff
	desc     [2]dma.Desc // one descriptor per channel: block sends and off-chip tiles
	compute  sim.Time
	transfer sim.Time
}

// send DMA-transfers sz bytes from a local offset to an offset on chip
// core index core, rewriting the channel's descriptor as each send's
// addresses require.
func (b *blockCore) send(ch dma.Chan, core int, src, dst mem.Addr, sz int) {
	d := &b.desc[ch]
	d.Set1D(src, b.c.Chip().Map().GlobalOf(core, dst), sz, 8)
	b.c.DMAStart(ch, b.c.DMASetDesc(d))
	b.c.DMAWait(ch)
}

// multiplyAdd performs C += A*B on the blocks at a and bb functionally
// and charges the pipeline model's cycles.
func (b *blockCore) multiplyAdd(a, bb mem.Addr) {
	start := b.c.Now()
	mulBlock(b.c.Local(), a, bb, b.plan.c, b.m, b.n, b.k)
	cycles, flops := MatmulBlockModel(b.m, b.n, b.k, b.tuned)
	b.c.Compute(cycles, flops)
	b.compute += b.c.Now() - start
}

// zeroC clears the product block (doubleword stores: 2 floats/cycle).
func (b *blockCore) zeroC() {
	sram := b.c.Local()
	for i := 0; i < b.m*b.k; i++ {
		sram.StoreF32(b.plan.c+mem.Addr(4*i), 0)
	}
	b.c.Compute(uint64(b.m*b.k/2+10), 0)
}

// cannon is the per-core state of the on-chip Cannon multiplication.
type cannon struct {
	blockCore
	left, up   int    // rotation targets (torus)
	right, dwn int    // rotation sources
	round      uint32 // completed compute rounds, monotone over the run
	parity     int    // half-buffer scheme base parity
	cur        int    // double-buffer scheme current buffer
}

func newCannon(b blockCore) cannon {
	ca := cannon{blockCore: b}
	ca.left, _ = b.w.Neighbour(b.gr, b.gc, 0, -1, sdk.Wrap)
	ca.right, _ = b.w.Neighbour(b.gr, b.gc, 0, 1, sdk.Wrap)
	ca.up, _ = b.w.Neighbour(b.gr, b.gc, -1, 0, sdk.Wrap)
	ca.dwn, _ = b.w.Neighbour(b.gr, b.gc, 1, 0, sdk.Wrap)
	return ca
}

// bases returns the current A and B operand bases.
func (ca *cannon) bases() (a, b mem.Addr) {
	switch {
	case ca.plan.scheme == schemeHalf:
		h := mem.Addr(ca.parity) * matmulHalfSz
		return ca.plan.a0 + h, ca.plan.b0 + h
	case ca.cur == 0:
		return ca.plan.a0, ca.plan.b0
	}
	return ca.plan.a1, ca.plan.b1
}

// mulScratch recycles mulBlock's operand buffers across blocks, cores
// and runs.
var mulScratch = sync.Pool{New: func() any { return new([]float32) }}

// mulBlock performs C += A*B on the row-major float32 blocks at a (m x n),
// b (n x k) and c (m x k) in sram. It decodes the three blocks once, runs
// the multiply-adds in the modelled kernel's i, l, j order - every
// C[i][j] takes its updates in increasing l - with each product and sum
// rounded to float32, and stores C once, so the result is bit-identical
// to the word-by-word loop. It then charges the SRAM traffic that loop
// makes beyond the bulk decode and store: a C load, a B load and a C
// store per multiply-add against one pass over B and two over C.
//
// The l loop is unrolled by four, so C[i][j] stays in a register across
// four updates. The explicit float32 conversions round each product, so
// no compiler fuses a multiply-add.
func mulBlock(sram *mem.Memory, a, b, c mem.Addr, m, n, k int) {
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
		ai := av[i*n : (i+1)*n]
		l := 0
		for ; l+4 <= n; l += 4 {
			x0, x1, x2, x3 := ai[l], ai[l+1], ai[l+2], ai[l+3]
			b0 := bv[l*k:][:len(ci)]
			b1 := bv[(l+1)*k:][:len(ci)]
			b2 := bv[(l+2)*k:][:len(ci)]
			b3 := bv[(l+3)*k:][:len(ci)]
			for j := range ci {
				v := ci[j]
				v = v + float32(x0*b0[j])
				v = v + float32(x1*b1[j])
				v = v + float32(x2*b2[j])
				v = v + float32(x3*b3[j])
				ci[j] = v
			}
		}
		for ; l < n; l++ {
			x := ai[l]
			bl := bv[l*k:][:len(ci)]
			for j := range ci {
				ci[j] = ci[j] + float32(x*bl[j])
			}
		}
	}
	sram.StoreF32s(c, cv)
	sram.Charge(12*m*n*k - 4*n*k - 8*m*k)
	mulScratch.Put(buf)
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
			ca.flags.Await(flagFwdFromLeft, r-1)
			ca.flags.Await(flagFwdFromUp, r-1)
		}
		spareA, spareB := ca.plan.a1, ca.plan.b1
		if ca.cur == 1 {
			spareA, spareB = ca.plan.a0, ca.plan.b0
		}
		a, b := ca.bases()
		ca.send(dma.DMA0, ca.left, a, spareA, aSz)
		ca.send(dma.DMA1, ca.up, b, spareB, bSz)
		// Send credit: both forwards out of our current buffers are
		// complete, so the cores that DMA into us may overwrite them.
		ca.flags.Post(ca.right, flagFwdFromLeft, r)
		ca.flags.Post(ca.dwn, flagFwdFromUp, r)
		ca.flags.Post(ca.left, flagArrAFromRight, r)
		ca.flags.Post(ca.up, flagArrBFromBelow, r)
		ca.flags.Await(flagArrAFromRight, r)
		ca.flags.Await(flagArrBFromBelow, r)
		ca.cur ^= 1
	case schemeHalf:
		// The paper's §VII alternate buffering scheme (Figures 10-13):
		// 2 KB halves leapfrog through the adjacent rotation buffer, with
		// the base pointer sliding by 2 KB each round. Phase 1 may begin
		// only once the target has finished this round's compute (its
		// buffer geometry must agree with ours).
		ca.flags.Await(flagCDFromLeft, r)
		ca.flags.Await(flagCDFromUp, r)
		a, _ := ca.bases()
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
		ca.send(dma.DMA0, ca.left, a1src, a1dst, matmulHalfSz)
		ca.send(dma.DMA1, ca.up, a1src+off, a1dst+off, matmulHalfSz)
		ca.flags.Post(ca.right, flagP1AFromLeft, r)
		ca.flags.Post(ca.dwn, flagP1BFromUp, r)
		// Phase 2 may only overwrite the halves our targets have vacated.
		ca.flags.Await(flagP1AFromLeft, r)
		ca.flags.Await(flagP1BFromUp, r)
		ca.send(dma.DMA0, ca.left, a2src, a2dst, matmulHalfSz)
		ca.send(dma.DMA1, ca.up, a2src+off, a2dst+off, matmulHalfSz)
		ca.flags.Post(ca.left, flagArrAFromRight, r)
		ca.flags.Post(ca.up, flagArrBFromBelow, r)
		ca.flags.Await(flagArrAFromRight, r)
		ca.flags.Await(flagArrBFromBelow, r)
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
		ca.multiplyAdd(ca.bases())
		if g > 1 && ca.plan.scheme == schemeHalf {
			ca.flags.Post(ca.right, flagCDFromLeft, ca.round)
			ca.flags.Post(ca.dwn, flagCDFromUp, ca.round)
		}
		if step < g-1 {
			ca.rotate()
		} else if g > 1 && ca.plan.scheme == schemeDouble {
			ca.flags.Post(ca.right, flagFwdFromLeft, ca.round)
			ca.flags.Post(ca.dwn, flagFwdFromUp, ca.round)
		}
	}
}

// matmulRun is the multiplication's part of the host program, for all
// three drivers: Cannon or SUMMA over blocks resident on chip, or
// Cannon over tiles paged through shared DRAM.
type matmulRun struct {
	cfg MatmulConfig
	// m x n x k is the per-core block; off chip, every side is the
	// tile edge, and tileEdge is the on-chip tile (G tiles per side).
	m, n, k  int
	tileEdge int
	plan     *matmulPlan
	a, b     []float32
	// aOff, bOff and cOff stage the off-chip operands in DRAM.
	aOff, bOff, cOff mem.Addr
	// cannons or, for SUMMA, summas holds one slot per core, in group
	// order.
	cannons []cannon
	summas  []summa
	res     *MatmulResult
}

func (r *matmulRun) summa() bool { return r.cfg.Algorithm == "summa" }

// stage distributes the operands: off chip into shared DRAM, on chip
// one block of each per core - with Cannon's initial skew, core (i,j)
// gets A block (i, (i+j) mod g) and B block ((i+j) mod g, j), while
// SUMMA's distribution is unskewed: A block (i,j) and B block (i,j).
func (r *matmulRun) stage(hp *host.Proc, w *sdk.Workgroup) {
	if r.cfg.OffChip {
		hp.WriteDRAMF32(r.aOff, r.a)
		hp.WriteDRAMF32(r.bOff, r.b)
		return
	}
	g, m, n, k := r.cfg.G, r.m, r.n, r.k
	blk := make([]float32, max(m*n, n*k)) // reused: each write copies it
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			aCol, bRow := (i+j)%g, (i+j)%g
			if r.summa() {
				aCol, bRow = j, i
			}
			hp.WriteCoreF32(w.CoreIndex(i, j), r.plan.a0, subBlock(blk, r.a, r.cfg.N, i*m, aCol*n, m, n))
			hp.WriteCoreF32(w.CoreIndex(i, j), r.plan.b0, subBlock(blk, r.b, r.cfg.K, bRow*n, j*k, n, k))
		}
	}
}

func (r *matmulRun) kernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int) {
	b := blockCore{c: c, w: w, gr: gr, gc: gc, m: r.m, n: r.n, k: r.k, plan: r.plan, tuned: r.cfg.Tuned,
		flags: sdk.NewFlags(c, matmulFlagsOff)}
	i := gr*w.Cols + gc
	if r.summa() {
		su := &r.summas[i]
		*su = summa{blockCore: b}
		su.zeroC()
		su.multiply()
		return
	}
	ca := &r.cannons[i]
	*ca = newCannon(b)
	if r.cfg.OffChip {
		r.offChipKernel(ca)
		return
	}
	ca.zeroC()
	ca.multiply()
}

// gather sums the cores' compute/transfer times and reads C back.
func (r *matmulRun) gather(hp *host.Proc, w *sdk.Workgroup) {
	res := r.res
	for i := range r.cannons {
		res.ComputeTime += r.cannons[i].compute
		res.TransferTime += r.cannons[i].transfer
	}
	for i := range r.summas {
		res.ComputeTime += r.summas[i].compute
		res.TransferTime += r.summas[i].transfer
	}
	if r.cfg.OffChip {
		res.C = hp.ReadDRAMF32(r.cOff, r.cfg.M*r.cfg.K)
		return
	}
	g, m, k := r.cfg.G, r.m, r.k
	res.C = make([]float32, r.cfg.M*r.cfg.K)
	blk := make([]float32, m*k) // reused for every core
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			hp.ReadCoreF32(w.CoreIndex(i, j), r.plan.c, blk)
			pasteBlock(res.C, r.cfg.K, i*m, j*k, m, k, blk)
		}
	}
}

// offChipKernel is the device-side top level: page tile operands in from
// shared memory, run the on-chip product, page the C tile back out. Each
// tile transfer refills its channel's rotation descriptor in place: the
// transfer waits for its channel before returning, so the descriptor is
// free again.
func (r *matmulRun) offChipKernel(ca *cannon) {
	g, n, G, S, Q := ca.w.Rows, ca.n, r.cfg.M, r.tileEdge, r.cfg.M/r.tileEdge
	// page moves one n x n tile between local and the DRAM matrix at
	// dramBase, whose tile origin is (row, col).
	page := func(ch dma.Chan, dramBase mem.Addr, row, col int, local mem.Addr, out bool) {
		t0 := ca.c.Now()
		dram, sram := mem.DRAMBase+dramBase+mem.Addr(4*(row*G+col)), ca.c.Global(local)
		if out {
			tileDesc(&ca.desc[ch], sram, dram, n, n, n, G)
		} else {
			tileDesc(&ca.desc[ch], dram, sram, n, n, G, n)
		}
		ca.c.DMAStart(ch, ca.c.DMASetDesc(&ca.desc[ch]))
		ca.c.DMAWait(ch)
		ca.transfer += ca.c.Now() - t0
	}

	i, j := ca.gr, ca.gc
	for bi := 0; bi < Q; bi++ {
		for bj := 0; bj < Q; bj++ {
			ca.zeroC()
			for bk := 0; bk < Q; bk++ {
				s := (i + j) % g
				a, b := ca.bases()
				page(dma.DMA0, r.aOff, bi*S+i*n, bk*S+s*n, a, false)
				page(dma.DMA1, r.bOff, bk*S+s*n, bj*S+j*n, b, false)
				ca.multiply()
			}
			page(dma.DMA0, r.cOff, bi*S+i*n, bj*S+j*n, ca.plan.c, true)
		}
	}
}

// --- shared helpers ---

// subBlock copies the rows x cols block of m (row pitch pitch) at
// (r0, c0) into the front of dst and returns that part of dst.
func subBlock(dst, m []float32, pitch, r0, c0, rows, cols int) []float32 {
	out := dst[:rows*cols]
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
