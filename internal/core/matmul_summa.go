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

// SUMMA (van de Geijn & Watts), the algorithm the paper's §VIII contrasts
// with its Cannon implementation: instead of rotating blocks around a
// torus, each step broadcasts one column panel of A along the rows and
// one row panel of B along the columns, then performs a local
// rank-n update. No initial skew is needed and the grid need not be a
// torus; the cost is that broadcasts travel up to g-1 hops (pipelined
// store-and-forward here) where Cannon only ever talks to neighbours.

// SUMMA flag slots, continuing the table in matmul.go.
const (
	flagSummaAFromWest = 6 // A panel arrived from the west neighbour
	flagSummaAFromEast = 7
	flagSummaBFromN    = 8 // B panel arrived from the north neighbour
	flagSummaBFromS    = 9
	flagSummaCDN       = 10 // north neighbour's computed-steps counter
	flagSummaCDS       = 11
	flagSummaCDW       = 12
	flagSummaCDE       = 13
)

// summa is the per-core state of a SUMMA multiplication. The double-
// buffer scratchpad plan is reused: a0/b0 hold the core's own blocks,
// a1/b1 the panel workspace.
type summa struct {
	c        *ecore.Core
	w        *sdk.Workgroup
	gr, gc   int
	m, n, k  int
	plan     *matmulPlan
	tuned    bool
	step     uint32
	compute  sim.Time
	transfer sim.Time
	desc     [2]dma.Desc // one send descriptor per channel
}

func newSumma(c *ecore.Core, w *sdk.Workgroup, gr, gc, m, n, k int, plan *matmulPlan, tuned bool) *summa {
	return &summa{c: c, w: w, gr: gr, gc: gc, m: m, n: n, k: k, plan: plan, tuned: tuned}
}

func (s *summa) post(row, col, slot int, v uint32) {
	s.c.StoreGlobal32(s.c.GlobalOn(s.w.OriginRow+row, s.w.OriginCol+col,
		matmulFlagsOff+mem.Addr(4*slot)), v)
}

func (s *summa) await(slot int, v uint32) {
	s.c.WaitLocal32GE(matmulFlagsOff+mem.Addr(4*slot), v)
}

// send DMA-copies sz bytes to workgroup position (row, col).
func (s *summa) send(ch dma.Chan, row, col int, src, dst mem.Addr, sz int) {
	d := &s.desc[ch]
	d.Set1D(src, s.c.GlobalOn(s.w.OriginRow+row, s.w.OriginCol+col, dst), sz, 8)
	s.c.DMAStart(ch, s.c.DMASetDesc(d))
	s.c.DMAWait(ch)
}

// awaitCD waits until the neighbour at (row, col) has computed at least
// `need` steps, so its panel workspace is free for overwriting. Unlike
// the old Cannon schemeDouble gate (which raced: its counter was
// posted before the round's forwards), this compute-done gate is
// send-safe as-is: postCD runs after panelCompute, and a SUMMA step's
// forwards out of the panel workspace all happen *before* that step's
// compute, so a step-N counter proves the workspace's sends drained.
func (s *summa) awaitCD(row, col int, need uint32) {
	if need == 0 {
		return
	}
	var slot int
	switch {
	case row < s.gr:
		slot = flagSummaCDN
	case row > s.gr:
		slot = flagSummaCDS
	case col < s.gc:
		slot = flagSummaCDW
	default:
		slot = flagSummaCDE
	}
	s.await(slot, need)
}

// broadcastA distributes step l's A panel along this core's row via a
// store-and-forward pipeline away from the owner column l. It returns
// the base of the panel for this core's compute.
func (s *summa) broadcastA(l int) mem.Addr {
	g := s.w.Cols
	sz := 4 * s.m * s.n
	t0 := s.c.Now()
	defer func() { s.transfer += s.c.Now() - t0 }()
	switch {
	case s.gc == l: // owner: seed both directions
		if l > 0 {
			s.awaitCD(s.gr, s.gc-1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc-1, s.plan.a0, s.plan.a1, sz)
			s.post(s.gr, s.gc-1, flagSummaAFromEast, s.step)
		}
		if l < g-1 {
			s.awaitCD(s.gr, s.gc+1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc+1, s.plan.a0, s.plan.a1, sz)
			s.post(s.gr, s.gc+1, flagSummaAFromWest, s.step)
		}
		return s.plan.a0
	case s.gc > l: // receive from the west, forward east
		s.await(flagSummaAFromWest, s.step)
		if s.gc+1 < g {
			s.awaitCD(s.gr, s.gc+1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc+1, s.plan.a1, s.plan.a1, sz)
			s.post(s.gr, s.gc+1, flagSummaAFromWest, s.step)
		}
		return s.plan.a1
	default: // receive from the east, forward west
		s.await(flagSummaAFromEast, s.step)
		if s.gc-1 >= 0 {
			s.awaitCD(s.gr, s.gc-1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc-1, s.plan.a1, s.plan.a1, sz)
			s.post(s.gr, s.gc-1, flagSummaAFromEast, s.step)
		}
		return s.plan.a1
	}
}

// broadcastB distributes step l's B panel along this core's column.
func (s *summa) broadcastB(l int) mem.Addr {
	g := s.w.Rows
	sz := 4 * s.n * s.k
	t0 := s.c.Now()
	defer func() { s.transfer += s.c.Now() - t0 }()
	switch {
	case s.gr == l:
		if l > 0 {
			s.awaitCD(s.gr-1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr-1, s.gc, s.plan.b0, s.plan.b1, sz)
			s.post(s.gr-1, s.gc, flagSummaBFromS, s.step)
		}
		if l < g-1 {
			s.awaitCD(s.gr+1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr+1, s.gc, s.plan.b0, s.plan.b1, sz)
			s.post(s.gr+1, s.gc, flagSummaBFromN, s.step)
		}
		return s.plan.b0
	case s.gr > l:
		s.await(flagSummaBFromN, s.step)
		if s.gr+1 < g {
			s.awaitCD(s.gr+1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr+1, s.gc, s.plan.b1, s.plan.b1, sz)
			s.post(s.gr+1, s.gc, flagSummaBFromN, s.step)
		}
		return s.plan.b1
	default:
		s.await(flagSummaBFromS, s.step)
		if s.gr-1 >= 0 {
			s.awaitCD(s.gr-1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr-1, s.gc, s.plan.b1, s.plan.b1, sz)
			s.post(s.gr-1, s.gc, flagSummaBFromS, s.step)
		}
		return s.plan.b1
	}
}

// panelCompute performs C += Apanel * Bpanel with the modelled schedule.
func (s *summa) panelCompute(aBase, bBase mem.Addr) {
	start := s.c.Now()
	mulBlock(s.c.Local(), aBase, bBase, s.plan.c, s.m, s.n, s.k)
	cycles, flops := MatmulBlockModel(s.m, s.n, s.k, s.tuned)
	s.c.Compute(cycles, flops)
	s.compute += s.c.Now() - start
}

// postCD tells every neighbour this core finished another step.
func (s *summa) postCD() {
	g := s.w.Rows
	if s.gr > 0 {
		s.post(s.gr-1, s.gc, flagSummaCDS, s.step)
	}
	if s.gr < g-1 {
		s.post(s.gr+1, s.gc, flagSummaCDN, s.step)
	}
	if s.gc > 0 {
		s.post(s.gr, s.gc-1, flagSummaCDE, s.step)
	}
	if s.gc < s.w.Cols-1 {
		s.post(s.gr, s.gc+1, flagSummaCDW, s.step)
	}
}

// multiply runs the g SUMMA steps.
func (s *summa) multiply() {
	g := s.w.Rows
	for l := 0; l < g; l++ {
		s.step++
		var aBase, bBase mem.Addr
		if g == 1 {
			aBase, bBase = s.plan.a0, s.plan.b0
		} else {
			aBase = s.broadcastA(l)
			bBase = s.broadcastB(l)
		}
		s.panelCompute(aBase, bBase)
		if g > 1 {
			s.postCD()
		}
	}
}

// zeroC clears the product block.
func (s *summa) zeroC() {
	sram := s.c.Local()
	for i := 0; i < s.m*s.k; i++ {
		sram.StoreF32(s.plan.c+mem.Addr(4*i), 0)
	}
	s.c.Compute(uint64(s.m*s.k/2+10), 0)
}

// runMatmulSumma is the on-chip driver for Algorithm == "summa".
func runMatmulSumma(h *host.Host, cfg MatmulConfig) (*MatmulResult, error) {
	m, n, k, err := cfg.blockDims()
	if err != nil {
		return nil, err
	}
	// SUMMA always needs the panel workspace, even on one core... except
	// that a single core broadcasts nothing; but keep the plan uniform.
	plan, err := planMatmul(m, n, k, maxIntMM(cfg.G, 2))
	if err != nil {
		return nil, err
	}
	if plan.scheme != schemeDouble {
		return nil, fmt.Errorf("core: SUMMA needs panel workspace; %dx%dx%d per-core blocks leave no room (Cannon's half-buffer trick does not apply)", m, n, k)
	}
	g := cfg.G
	w, err := sdk.NewWorkgroup(h.Chip(), 0, 0, g, g)
	if err != nil {
		return nil, err
	}
	a, b := makeMatmulInput(&cfg)
	res := &MatmulResult{}

	h.Spawn("summa-host", func(hp *host.Proc) {
		cores := make([]int, 0, g*g)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				cores = append(cores, w.CoreIndex(i, j))
			}
		}
		hp.LoadImage(cores, matmulCodeSize)
		// SUMMA's distribution is unskewed: core (i,j) simply gets A block
		// (i,j) (rows i*m, cols j*n) and B block (i,j) (rows i*n, cols j*k).
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				hp.WriteCoreF32(w.CoreIndex(i, j), plan.a0, subBlock(a, cfg.N, i*m, j*n, m, n))
				hp.WriteCoreF32(w.CoreIndex(i, j), plan.b0, subBlock(b, cfg.K, i*n, j*k, n, k))
			}
		}

		start := hp.Now()
		// One slot per core, in group order; the host sums them after
		// Join.
		summas := make([]*summa, g*g)
		procs := w.Launch("summa", func(c *ecore.Core, gr, gc int) {
			su := newSumma(c, w, gr, gc, m, n, k, plan, cfg.Tuned)
			summas[gr*g+gc] = su
			su.zeroC()
			su.multiply()
		})
		hp.Join(procs)
		res.Elapsed = hp.Now() - start
		for _, su := range summas {
			res.ComputeTime += su.compute
			res.TransferTime += su.transfer
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

func maxIntMM(a, b int) int {
	if a > b {
		return a
	}
	return b
}
