package isa

import (
	"testing"
	"testing/quick"
)

func countKind(prog []Op, k Kind) int {
	n := 0
	for _, o := range prog {
		if o.Kind == k {
			n++
		}
	}
	return n
}

func TestOpHelpers(t *testing.T) {
	f := Fmadd(8, 2, 20)
	if f.Kind != FMADD || f.Dst != 8 || len(f.Src) != 3 || f.Src[2] != 8 {
		t.Fatalf("Fmadd = %+v; accumulator must appear in Src", f)
	}
	if FMADD.Flops() != 2 || FMUL.Flops() != 1 || IALU.Flops() != 0 {
		t.Fatal("flop counts wrong")
	}
	if !FMADD.FPU() || IALU.FPU() || LOAD64.FPU() || BRANCH.FPU() {
		t.Fatal("lane classification wrong")
	}
	if s := f.String(); s == "" {
		t.Fatal("empty op string")
	}
}

func TestPipelineDualIssue(t *testing.T) {
	// FMADD + IALU pairs issue in one cycle each.
	p := NewPipeline()
	prog := []Op{
		Fmadd(32, 2, 16), Iadd(0, 0),
		Fmadd(33, 2, 17), Iadd(1, 1),
		Fmadd(34, 2, 18), Iadd(2, 2),
	}
	if c := p.Run(prog); c != 3 {
		t.Fatalf("3 pairs took %d cycles, want 3", c)
	}
	if p.Issued() != 6 {
		t.Fatalf("issued %d, want 6", p.Issued())
	}
}

func TestPipelineSameLaneNoPair(t *testing.T) {
	p := NewPipeline()
	prog := []Op{Iadd(0, 0), Iadd(1, 1), Iadd(2, 2)}
	if c := p.Run(prog); c != 3 {
		t.Fatalf("3 IALU ops took %d cycles, want 3 (no same-lane dual issue)", c)
	}
}

func TestPipelineFMADDLatencyStall(t *testing.T) {
	// Back-to-back FMADDs into the same accumulator stall 4 cycles each.
	p := NewPipeline()
	prog := []Op{Fmadd(8, 2, 16), Fmadd(8, 3, 17)}
	if c := p.Run(prog); c != 1+FMADDLatency {
		t.Fatalf("dependent FMADD pair took %d cycles, want %d", c, 1+FMADDLatency)
	}
	if p.Stalls() != FMADDLatency-1 {
		t.Fatalf("stalls = %d, want %d", p.Stalls(), FMADDLatency-1)
	}
}

func TestPipelineRotatingAccumulatorsNoStall(t *testing.T) {
	// The paper's trick: touch each accumulator every 5 cycles.
	var prog []Op
	for pass := 0; pass < 5; pass++ {
		for k := 0; k < 5; k++ {
			prog = append(prog, Fmadd(Reg(8+k), 2, Reg(20+k)))
		}
	}
	p := NewPipeline()
	if c := p.Run(prog); c != 25 {
		t.Fatalf("25 rotating FMADDs took %d cycles, want 25 (stall-free)", c)
	}
	if p.Stalls() != 0 {
		t.Fatalf("stalls = %d, want 0", p.Stalls())
	}
}

func TestPipelineStoreWaitsForFMADD(t *testing.T) {
	p := NewPipeline()
	prog := []Op{Fmadd(8, 2, 16), Store32(8)}
	if c := p.Run(prog); c != 1+FMADDLatency {
		t.Fatalf("store-after-FMADD took %d cycles, want %d", c, 1+FMADDLatency)
	}
}

func TestPipelineStore64ReadsPair(t *testing.T) {
	// STORE64 of r8 must also wait for r9.
	p := NewPipeline()
	prog := []Op{Fmadd(9, 2, 16), Store64(8)}
	if c := p.Run(prog); c != 1+FMADDLatency {
		t.Fatalf("store64 ignored pair hazard: %d cycles", c)
	}
}

func TestPipelineLoadUseDelay(t *testing.T) {
	p := NewPipeline()
	prog := []Op{Load32(16), Fmadd(8, 2, 16)}
	if c := p.Run(prog); c != LoadLatency+1 {
		t.Fatalf("load-use took %d cycles, want %d", c, LoadLatency+1)
	}
	// Load64 makes both halves late.
	p2 := NewPipeline()
	prog2 := []Op{Load64(16), Fmadd(8, 2, 17)}
	if c := p2.Run(prog2); c != LoadLatency+1 {
		t.Fatalf("load64 pair latency not modelled: %d cycles", c)
	}
}

func TestPipelineBranchPenalty(t *testing.T) {
	p := NewPipeline()
	if c := p.Run([]Op{Iadd(0, 0), Branch()}); c != 1+BranchPenalty {
		t.Fatalf("branch loop tail took %d cycles, want %d", c, 1+BranchPenalty)
	}
}

func TestLoopCyclesMatchesExplicitSimulation(t *testing.T) {
	body := MatmulRowBodyNK(16, 16)
	for _, iters := range []uint64{1, 2, 3, 4, 5, 9, 17} {
		p := NewPipeline()
		for k := uint64(0); k < iters; k++ {
			p.Run(body)
		}
		if got := LoopCycles(body, iters); got != p.Cycle() {
			t.Fatalf("LoopCycles(%d) = %d, explicit = %d", iters, got, p.Cycle())
		}
	}
	if LoopCycles(body, 0) != 0 {
		t.Fatal("zero iterations should cost zero")
	}
}

func TestStencilMacroShape(t *testing.T) {
	m := stencilMacro(StencilAccA, StencilAccB, stencilBufX, stencilBufY, 3)
	if got := countKind(m, FMADD); got != 25 {
		t.Fatalf("macro has %d FMADDs, want 25", got)
	}
	nonF := len(m) - 25
	if nonF != 15 {
		t.Fatalf("macro has %d integer-lane ops, want 15 (paper: 40 instructions total)", nonF)
	}
	if got := Flops(m); got != 50 {
		t.Fatalf("macro flops = %d, want 50", got)
	}
}

func TestStencilMacroSteadyState25Cycles(t *testing.T) {
	// Alternating macro pairs must sustain 25 cycles / 50 flops each:
	// the paper's "executing in 25 clock cycles and performing 50 Flops".
	var pair []Op
	pair = append(pair, stencilMacro(StencilAccA, StencilAccB, stencilBufX, stencilBufY, 3)...)
	pair = append(pair, stencilMacro(StencilAccB, StencilAccA, stencilBufX+5, stencilBufY+5, 2)...)
	p := NewPipeline()
	p.Run(pair) // warm-up
	start := p.Cycle()
	p.Run(pair)
	if got := p.Cycle() - start; got != 50 {
		t.Fatalf("steady macro pair = %d cycles, want 50", got)
	}
}

func TestStencilLoopBody(t *testing.T) {
	body := StencilLoopBody()
	if got := countKind(body, FMADD); got != 200 {
		t.Fatalf("loop body has %d FMADDs, want 200", got)
	}
	if got := Flops(body); got != 400 {
		t.Fatalf("loop body flops = %d, want 400", got)
	}
	// Steady state: 200 FMADD cycles + 4-5 cycle loop penalty (paper:
	// "a 2 or 2.5% overhead over 200 clocks").
	c1 := LoopCycles(body, 8)
	c2 := LoopCycles(body, 9)
	steady := c2 - c1
	if steady < 203 || steady > 206 {
		t.Fatalf("steady loop iteration = %d cycles, want 203-206", steady)
	}
	// Code size ~1300 bytes (paper: "approximately 1300 bytes").
	if sz := CodeBytes(body); sz < 1100 || sz > 1500 {
		t.Fatalf("loop body code = %d bytes, want ~1300", sz)
	}
}

func TestStencilPrologueCheap(t *testing.T) {
	pro := StencilPrologue()
	p := NewPipeline()
	c := p.Run(pro)
	if c < 22 || c > 60 {
		t.Fatalf("prologue = %d cycles, want a few dozen", c)
	}
}

func TestStencilNaiveMuchSlower(t *testing.T) {
	naive := StencilNaiveBody()
	if got := Flops(naive); got != 10 {
		t.Fatalf("naive body flops = %d, want 10 (one grid point)", got)
	}
	// Tuned: 400 flops per ~204 cycles -> ~1.96 flops/cycle.
	// Naive must be below 0.6 flops/cycle ("a small fraction of peak").
	steady := LoopCycles(naive, 100) / 100
	fpc := 10.0 / float64(steady)
	if fpc > 0.6 {
		t.Fatalf("naive stencil %.2f flops/cycle, want < 0.6", fpc)
	}
}

func TestMatmulMacro32(t *testing.T) {
	m := MatmulMacro(32, matmulAElems[0], matmulAElems[1])
	if got := countKind(m, FMADD); got != 32 {
		t.Fatalf("macro FMADDs = %d, want 32", got)
	}
	nonF := len(m) - 32
	if nonF < 16 || nonF > 20 {
		t.Fatalf("macro integer ops = %d, want ~18 (paper: 50 instructions)", nonF)
	}
	if got := Flops(m); got != 64 {
		t.Fatalf("macro flops = %d, want 64", got)
	}
	// Steady state 32 cycles (paper: "executing 64 Flops in 32 cycles").
	var quad []Op
	for i := 0; i < 4; i++ {
		quad = append(quad, MatmulMacro(32, matmulAElems[i], matmulAElems[(i+1)%4])...)
	}
	p := NewPipeline()
	p.Run(quad)
	start := p.Cycle()
	p.Run(quad)
	if got := (p.Cycle() - start) / 4; got != 32 {
		t.Fatalf("steady macro = %d cycles, want 32", got)
	}
}

func TestMatmulMacroBounds(t *testing.T) {
	for _, bad := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatmulMacro(%d) should panic", bad)
				}
			}()
			MatmulMacro(bad, 11, 12)
		}()
	}
}

func TestMatmulRowEfficiencyTableIVShape(t *testing.T) {
	// Per-row steady-state efficiency must reproduce Table IV's trend:
	// rising from ~70% at 8x8 to ~96% at 32x32. The kernel adds per-block
	// overhead on top, so the pure row numbers here sit slightly above
	// the table; the block-level assertions live in the core package.
	cases := []struct {
		n        int
		lo, hi   float64 // acceptable flops/cycle range
		monotone bool
	}{
		{8, 1.20, 1.70, true},
		{16, 1.60, 1.90, true},
		{20, 1.70, 1.95, true},
		{24, 1.75, 1.95, true},
		{32, 1.85, 2.00, true},
	}
	prev := 0.0
	for _, c := range cases {
		body := MatmulRowBodyNK(c.n, c.n)
		iters := uint64(c.n)
		cyc := LoopCycles(body, iters)
		fpc := float64(Flops(body)*iters) / float64(cyc)
		if fpc < c.lo || fpc > c.hi {
			t.Errorf("n=%d: %.3f flops/cycle, want [%.2f,%.2f]", c.n, fpc, c.lo, c.hi)
		}
		if fpc <= prev {
			t.Errorf("n=%d: efficiency %.3f not increasing (prev %.3f)", c.n, fpc, prev)
		}
		prev = fpc
	}
}

func TestMatmulNaiveAbout60Percent(t *testing.T) {
	// §VII: the C version "gave only 60% of peak performance".
	n := 32
	tuned := LoopCycles(MatmulRowBodyNK(n, n), 32)
	naive := LoopCycles(MatmulNaiveRowBodyNK(n, n), 32)
	ratio := float64(tuned) / float64(naive)
	if ratio < 0.50 || ratio > 0.75 {
		t.Fatalf("naive/tuned speed ratio %.2f, want ~0.6", ratio)
	}
}

func TestMatmulRowFlops(t *testing.T) {
	for _, n := range []int{8, 16, 20, 24, 32} {
		body := MatmulRowBodyNK(n, n)
		if got, want := Flops(body), uint64(2*n*n); got != want {
			t.Fatalf("n=%d row flops = %d, want %d", n, got, want)
		}
	}
}

func TestMatmulCodeSizePaperEstimate(t *testing.T) {
	// Paper: "the macro is expanded 32 times ... resulting in around
	// 6.5 KBytes of assembly code" for one row of a 32x32 product.
	row := MatmulRowBodyNK(32, 32)
	sz := CodeBytes(row)
	if sz < 5000 || sz > 8000 {
		t.Fatalf("32x32 row code = %d bytes, want ~6.5 KB", sz)
	}
}

func TestPipelinePropertyCyclesBounded(t *testing.T) {
	// Property: for any schedule, cycles are at least the per-lane issue
	// bound and at most the fully serialized bound with max stalls.
	f := func(seed uint8, length uint8) bool {
		r := seed
		next := func(n int) int { r = r*37 + 11; return int(r) % n }
		var prog []Op
		for i := 0; i < int(length%60)+1; i++ {
			switch next(5) {
			case 0:
				prog = append(prog, Fmadd(Reg(32+next(16)), Reg(next(8)), Reg(16+next(8))))
			case 1:
				prog = append(prog, Load64(Reg(16+next(8))))
			case 2:
				prog = append(prog, Store32(Reg(32+next(16))))
			case 3:
				prog = append(prog, Iadd(Reg(next(8)), Reg(next(8))))
			default:
				prog = append(prog, Imov(Reg(32+next(16))))
			}
		}
		p := NewPipeline()
		c := p.Run(prog)
		fpu, ialu := 0, 0
		for _, o := range prog {
			if o.Kind.FPU() {
				fpu++
			} else {
				ialu++
			}
		}
		lower := uint64(max(fpu, ialu))
		upper := uint64(len(prog)) * (FMADDLatency + 1)
		return c >= lower && c <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
