package core

import (
	"fmt"
	"math"

	"epiphany/internal/host"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// Per-core scratchpad plan for the matmul kernels (§VII: "the entire code
// takes around 11 KBytes ... occupies the first data bank and portions of
// the second ... with the stack being allocated in the bottom half of
// bank 1").
const (
	matmulCodeOff   mem.Addr = 0x0000
	matmulCodeSize           = 13 * 1024
	matmulStackOff  mem.Addr = 0x3400
	matmulStackSize          = 0x0B00
	matmulFlagsOff  mem.Addr = 0x3F00
	matmulFlagsSize          = 0x100
	// The paper's exact 32x32 placement (§VII "Memory Considerations").
	matmulA32    mem.Addr = 0x4000 // A: 0x4000-0x4FFF, buffer 0x5000-0x57FF
	matmulB32    mem.Addr = 0x5800 // B: 0x5800-0x67FF, buffer 0x6800-0x6FFF
	matmulC32    mem.Addr = 0x7000 // C: 0x7000-0x7FFF
	matmulHalfSz          = 0x0800 // 2 KB half-block rotation unit
)

// Flag slots (4-byte words at matmulFlagsOff), named by who posts them.
const (
	flagCDFromLeft    = 0 // left neighbour finished compute round N (schemeHalf)
	flagCDFromUp      = 1
	flagArrAFromRight = 2 // A block for round N landed (posted by right)
	flagArrBFromBelow = 3
	flagP1AFromLeft   = 4 // left finished sending its phase-1 A half
	flagP1BFromUp     = 5
	// Slots 6-13 belong to SUMMA (matmul_summa.go).
	//
	// The schemeDouble send credit: the poster has fully retired round
	// N - its compute read the round's buffers AND its rotation
	// forwarded out of them - so the neighbours that DMA into it
	// (right for A, below for B) may overwrite those buffers. Posted
	// after a rotation's sends complete, or right after compute on a
	// pass's rotation-less final round. Gating overwrites on the
	// compute-done flag instead opened a race window under skewed
	// start times (the old off-chip schemeDouble corruption).
	flagFwdFromLeft = 14 // left neighbour retired round N (sends included)
	flagFwdFromUp   = 15
)

// MatmulConfig describes a multiplication C(MxK) = A(MxN) * B(NxK).
type MatmulConfig struct {
	M, N, K int
	// G is the square workgroup edge (1, 2, 4 or 8): Cannon's algorithm
	// rotates blocks around a GxG torus.
	G int
	// Tuned selects the hand-scheduled inner kernel model.
	Tuned bool
	// OffChip pages 256x256-class blocks through shared DRAM (§VII's top
	// level); otherwise operands must fit in on-chip memory.
	OffChip bool
	// OffChipEdge overrides the per-core tile edge for off-chip runs
	// (0 = choose the largest of 32/24/16/8 that divides the per-group
	// share). The paper used 24 for its 1536x1536 measurement, which is
	// why that row is slower.
	OffChipEdge int
	// Verify keeps operand values as small integers so float32 sums are
	// exact regardless of accumulation order.
	Verify bool
	// Algorithm selects the on-chip distribution algorithm: "" or
	// "cannon" for the paper's Cannon rotation, "summa" for the SUMMA
	// broadcast algorithm §VIII discusses as the alternative.
	Algorithm string
	Seed      uint64
}

func (cfg *MatmulConfig) blockDims() (m, n, k int, err error) {
	g := cfg.G
	if g != 1 && g != 2 && g != 4 && g != 8 {
		return 0, 0, 0, fmt.Errorf("core: workgroup edge %d not in {1,2,4,8}", g)
	}
	if cfg.M%g != 0 || cfg.N%g != 0 || cfg.K%g != 0 {
		return 0, 0, 0, fmt.Errorf("core: %dx%dx%d not divisible by group edge %d",
			cfg.M, cfg.N, cfg.K, g)
	}
	m, n, k = cfg.M/g, cfg.N/g, cfg.K/g
	if cfg.OffChip {
		// The paged level reuses the on-chip kernel per 32- or 24-wide
		// sub-block; the per-core working set is chosen by the driver.
		return m, n, k, nil
	}
	if k > 32 {
		// k is the C-row accumulator width: r32-r63 is the hard limit.
		return 0, 0, 0, fmt.Errorf("core: per-core block %dx%dx%d exceeds the 32-register accumulator file", m, n, k)
	}
	return m, n, k, nil
}

// Validate checks the configuration without running it: it builds the
// scratchpad plan a run would use.
func (cfg *MatmulConfig) Validate() error {
	_, err := cfg.plan()
	return err
}

// plan returns the scratchpad placement of the block one core
// multiplies per step, after every check a run makes before launching
// it.
func (cfg *MatmulConfig) plan() (*matmulPlan, error) {
	m, n, k, err := cfg.stepBlock()
	if err != nil {
		return nil, err
	}
	g := cfg.G
	if cfg.Algorithm == "summa" {
		// SUMMA needs the panel workspace even on one core, which
		// broadcasts nothing; the plan stays uniform.
		g = max(g, 2)
		if halfBuffered(m, n, k, g) {
			return nil, fmt.Errorf("core: SUMMA needs panel workspace; %dx%dx%d per-core blocks leave no room (Cannon's half-buffer trick does not apply)", m, n, k)
		}
	}
	return planMatmul(m, n, k, g)
}

// stepBlock returns the block one core multiplies per step - its
// operand block on chip, its paged tile off chip - after every check
// plan makes before placing it in the scratchpad.
func (cfg *MatmulConfig) stepBlock() (m, n, k int, err error) {
	if m, n, k, err = cfg.blockDims(); err != nil {
		return 0, 0, 0, err
	}
	switch cfg.Algorithm {
	case "", "cannon":
	case "summa":
		if cfg.OffChip {
			return 0, 0, 0, fmt.Errorf("core: the off-chip pager is built on Cannon; SUMMA is on-chip only")
		}
	default:
		return 0, 0, 0, fmt.Errorf("core: unknown algorithm %q (want cannon or summa)", cfg.Algorithm)
	}
	if cfg.OffChip {
		edge, err := cfg.offChipTile()
		if err != nil {
			return 0, 0, 0, err
		}
		if _, _, cOff := matmulDRAMOffsets(cfg); int(cOff)+4*cfg.M*cfg.K > mem.DRAMSize {
			return 0, 0, 0, fmt.Errorf("core: %d^2 operands exceed the 32 MB shared window", cfg.M)
		}
		m, n, k = edge, edge, edge
	}
	// Cannon's rotation and SUMMA's broadcasts move whole A and B blocks
	// with doubleword DMA sends.
	if cfg.G > 1 && (4*m*n%8 != 0 || 4*n*k%8 != 0) {
		return 0, 0, 0, fmt.Errorf("core: %dx%dx%d per-core blocks (%d-byte A, %d-byte B) are not whole 8-byte DMA beats",
			m, n, k, 4*m*n, 4*n*k)
	}
	return m, n, k, nil
}

// offChipTile returns the per-core tile edge of an off-chip run: the
// configured OffChipEdge, or else the largest of 32, 24, 16 and 8 that
// divides the per-group share M/G. The pager needs square operands.
func (cfg *MatmulConfig) offChipTile() (int, error) {
	if cfg.M != cfg.N || cfg.N != cfg.K {
		return 0, fmt.Errorf("core: off-chip matmul supports square matrices, got %dx%dx%d",
			cfg.M, cfg.N, cfg.K)
	}
	share := cfg.M / cfg.G
	if e := cfg.OffChipEdge; e != 0 {
		if e < 1 || e > 32 || share%e != 0 {
			return 0, fmt.Errorf("core: off-chip tile edge %d does not divide per-group share %d", e, share)
		}
		return e, nil
	}
	for _, e := range []int{32, 24, 16, 8} {
		if share%e == 0 {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: matrix edge %d not tileable over a %dx%d group", cfg.M, cfg.G, cfg.G)
}

// matmulDRAMOffsets returns where the off-chip run stages A, B and C
// in the shared window.
func matmulDRAMOffsets(cfg *MatmulConfig) (aOff, bOff, cOff mem.Addr) {
	aOff = 0
	bOff = aOff + mem.Addr(4*cfg.M*cfg.N)
	cOff = bOff + mem.Addr(4*cfg.N*cfg.K)
	return
}

// halfBuffered reports whether planMatmul gives an m x n x k block on a
// g x g group the paper's half-buffer placement, which leaves no room
// for second buffers.
func halfBuffered(m, n, k, g int) bool { return g > 1 && m == 32 && n == 32 && k == 32 }

// matmulScheme picks the buffering scheme for a per-core block size.
type matmulScheme int

const (
	schemeDouble matmulScheme = iota // full double buffers for A and B
	schemeHalf                       // the paper's 2 KB half-buffer rotation
)

// matmulPlan is the scratchpad placement of an m x n x k per-core
// block: the scheme and the A/B/C base offsets (a0 and b0 are the
// current-buffer bases; for schemeDouble, a1 and b1 the second
// buffers).
type matmulPlan struct {
	m, n, k           int
	scheme            matmulScheme
	a0, a1, b0, b1, c mem.Addr
}

// planMatmul computes the scratchpad placement for an m x n x k per-core
// block distributed over a g x g group. Single cores (g = 1) do not
// rotate and need no second buffers; small multi-core blocks double
// buffer both operands; and the paper's 32^3 blocks - whose double
// buffers cannot fit beside the 13 KB of macro-expanded code - use the
// exact half-buffer placement of §VII.
func planMatmul(m, n, k, g int) (*matmulPlan, error) {
	aSz, bSz, cSz := 4*m*n, 4*n*k, 4*m*k
	l := mem.NewLayout()
	if halfBuffered(m, n, k, g) {
		// The paper's fixed plan: 13 KB code, stack in bank 1, operands
		// with 2 KB rotation buffers at the documented addresses.
		for _, r := range []struct {
			name string
			off  mem.Addr
			sz   int
		}{
			{"code", matmulCodeOff, matmulCodeSize},
			{"stack", matmulStackOff, matmulStackSize},
			{"flags", matmulFlagsOff, matmulFlagsSize},
			{"A+buf", matmulA32, 0x1800},
			{"B+buf", matmulB32, 0x1800},
			{"C", matmulC32, 0x1000},
		} {
			if _, err := l.PlaceAt(r.name, r.off, r.sz); err != nil {
				return nil, err
			}
		}
		return &matmulPlan{m: m, n: n, k: k, scheme: schemeHalf, a0: matmulA32, b0: matmulB32, c: matmulC32}, nil
	}
	// Adaptive plan: the macro-expanded code size tracks the block shape.
	codeSz := matmulCodeBytes(n, k) + 3*1024
	if codeSz < 6*1024 {
		codeSz = 6 * 1024
	}
	if _, err := l.PlaceAt("code", matmulCodeOff, codeSz); err != nil {
		return nil, err
	}
	var err error
	place := func(name string, sz int) mem.Addr {
		if err != nil {
			return 0
		}
		r, e := l.Alloc(name, sz)
		if e != nil {
			err = fmt.Errorf("core: %dx%dx%d per-core block does not fit the 32 KB scratchpad: %w", m, n, k, e)
		}
		return r.Off
	}
	// Flags live at a fixed, globally known offset: neighbours post to
	// it. It is reserved first, so the stack never lands on it.
	if _, e := l.PlaceAt("flags", matmulFlagsOff, matmulFlagsSize); e != nil {
		return nil, e
	}
	place("stack", 1024)
	p := &matmulPlan{m: m, n: n, k: k, scheme: schemeDouble}
	p.a0 = place("A0", aSz)
	p.b0 = place("B0", bSz)
	if g > 1 {
		p.a1 = place("A1", aSz)
		p.b1 = place("B1", bSz)
	}
	p.c = place("C", cSz)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// MatmulResult reports one run. Its ComputeTime and TransferTime
// decompose the run as Table VI does (summed over cores).
type MatmulResult struct {
	Summary
	// C is the gathered result, row-major M x K.
	C []float32
}

// makeMatmulInput builds deterministic operands. With Verify, entries are
// small integers so that float32 accumulation is exact in any order.
func makeMatmulInput(cfg *MatmulConfig) (a, b []float32) {
	rng := sim.NewRand(cfg.Seed + 7)
	a = make([]float32, cfg.M*cfg.N)
	b = make([]float32, cfg.N*cfg.K)
	fill := func(s []float32) {
		for i := range s {
			if cfg.Verify {
				s[i] = float32(rng.Intn(9) - 4)
			} else {
				s[i] = rng.Float32() - 0.5
			}
		}
	}
	fill(a)
	fill(b)
	return a, b
}

// MatmulReference computes the product on the host in float64 for
// verification.
func MatmulReference(cfg MatmulConfig) []float32 {
	a, b := makeMatmulInput(&cfg)
	c := make([]float32, cfg.M*cfg.K)
	for i := 0; i < cfg.M; i++ {
		for l := 0; l < cfg.N; l++ {
			av := float64(a[i*cfg.N+l])
			for j := 0; j < cfg.K; j++ {
				c[i*cfg.K+j] = float32(float64(c[i*cfg.K+j]) + av*float64(b[l*cfg.K+j]))
			}
		}
	}
	return c
}

// MaxAbsDiff returns the largest elementwise |x-y|; helper for tests and
// examples comparing device output to the reference.
func MaxAbsDiff(x, y []float32) float64 {
	if len(x) != len(y) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(y[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// RunMatmul runs the configured multiplication: Cannon's rotation or
// SUMMA's broadcasts on chip (§VII level 2, Table V; §VIII), or Cannon
// over tiles paged through shared DRAM (§VII level 3, Table VI).
func RunMatmul(h *host.Host, cfg MatmulConfig) (*MatmulResult, error) {
	plan, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	g := cfg.G
	r := &matmulRun{cfg: cfg, res: &MatmulResult{}}
	if r.summa() {
		r.summas = make([]summa, g*g)
	} else {
		r.cannons = make([]cannon, g*g)
	}
	if cfg.OffChip {
		r.tileEdge = g * plan.m
		r.aOff, r.bOff, r.cOff = matmulDRAMOffsets(&cfg)
	}
	r.m, r.n, r.k, r.plan = plan.m, plan.n, plan.k, plan
	r.a, r.b = makeMatmulInput(&cfg)
	name := "matmul"
	if r.summa() {
		name = "summa"
	}
	flops := 2 * uint64(cfg.M) * uint64(cfg.N) * uint64(cfg.K)
	if err := r.res.run(h, launch{name, g, g, matmulCodeSize, flops}, r); err != nil {
		return nil, err
	}
	return r.res, nil
}
