package core

import (
	"testing"
)

func runMM(t *testing.T, cfg MatmulConfig) *MatmulResult {
	t.Helper()
	res, err := RunMatmul(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func verifyMM(t *testing.T, cfg MatmulConfig) *MatmulResult {
	t.Helper()
	cfg.Verify = true
	res := runMM(t, cfg)
	ref := MatmulReference(cfg)
	if d := MaxAbsDiff(res.C, ref); d != 0 {
		t.Fatalf("%dx%dx%d on %dx%d (offchip=%v): result differs from reference by %g",
			cfg.M, cfg.N, cfg.K, cfg.G, cfg.G, cfg.OffChip, d)
	}
	return res
}

func TestMatmulSingleCoreCorrectness(t *testing.T) {
	for _, n := range []int{8, 16, 20, 24, 32} {
		verifyMM(t, MatmulConfig{M: n, N: n, K: n, G: 1, Tuned: true, Seed: uint64(n)})
	}
}

func TestMatmulSingleCoreRectangular(t *testing.T) {
	verifyMM(t, MatmulConfig{M: 16, N: 16, K: 32, G: 1, Tuned: true, Seed: 1})
	verifyMM(t, MatmulConfig{M: 64, N: 32, K: 32, G: 1, Tuned: true, Seed: 2})
}

func TestMatmulOnChip2x2DoubleBuffer(t *testing.T) {
	// 2x2 grid, 16x16 per-core blocks: the double-buffered scheme.
	verifyMM(t, MatmulConfig{M: 32, N: 32, K: 32, G: 2, Tuned: true, Seed: 3})
}

func TestMatmulOnChip4x4(t *testing.T) {
	verifyMM(t, MatmulConfig{M: 64, N: 64, K: 64, G: 4, Tuned: true, Seed: 4})
}

func TestMatmulOnChip8x8HalfBuffer(t *testing.T) {
	// The paper's flagship on-chip case: 256x256 over 64 cores with
	// 32x32 per-core blocks and the half-buffer rotation scheme.
	cfg := MatmulConfig{M: 256, N: 256, K: 256, G: 8, Tuned: true, Seed: 5}
	m, n, k, err := cfg.blockDims()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planMatmul(m, n, k, cfg.G)
	if err != nil {
		t.Fatal(err)
	}
	if plan.scheme != schemeHalf {
		t.Fatalf("256x256 on 8x8 must use the half-buffer scheme")
	}
	res := verifyMM(t, cfg)
	// Table V anchor: ~65 GFLOPS, ~85% of peak.
	if res.PctPeak < 80 || res.PctPeak > 93 {
		t.Errorf("on-chip 256^3: %.1f%% of peak (%.1f GFLOPS), paper: 85.1%% (65.3)", res.PctPeak, res.GFLOPS)
	}
}

func TestMatmulOnChip2x2HalfBuffer(t *testing.T) {
	// 64x64 over 2x2 also lands on 32x32 blocks -> half-buffer scheme.
	verifyMM(t, MatmulConfig{M: 64, N: 64, K: 64, G: 2, Tuned: true, Seed: 6})
}

func TestMatmulRectangularMultiCore(t *testing.T) {
	// Weak-scaling shapes (Fig 14): M, N, K all different.
	verifyMM(t, MatmulConfig{M: 32, N: 64, K: 32, G: 2, Tuned: true, Seed: 7})
	verifyMM(t, MatmulConfig{M: 64, N: 128, K: 64, G: 8, Tuned: true, Seed: 8})
}

func TestMatmulSchemeSelection(t *testing.T) {
	if p, err := planMatmul(16, 16, 16, 4); err != nil || p.scheme != schemeDouble {
		t.Fatalf("16^3 plan = %+v, %v; want double-buffered", p, err)
	}
	if p, err := planMatmul(24, 24, 24, 4); err != nil || p.scheme != schemeDouble {
		t.Fatalf("24^3 plan = %+v, %v; want double-buffered (5 x 2.25KB fits)", p, err)
	}
	if p, err := planMatmul(32, 32, 32, 8); err != nil || p.scheme != schemeHalf {
		t.Fatalf("32^3 plan = %+v, %v; want half-buffer", p, err)
	}
	// The paper's 32x32 addresses.
	if p, _ := planMatmul(32, 32, 32, 8); p.a0 != 0x4000 || p.b0 != 0x5800 || p.c != 0x7000 {
		t.Fatalf("32^3 placement %+v does not match the paper's", p)
	}
}

func TestMatmulConfigValidation(t *testing.T) {
	bad := []MatmulConfig{
		{M: 32, N: 32, K: 32, G: 3},                   // not a power-of-two grid
		{M: 30, N: 32, K: 32, G: 4},                   // not divisible
		{M: 256, N: 256, K: 256, G: 4},                // 64x64 per core: too big on-chip
		{M: 512, N: 512, K: 512, G: 8},                // too big without OffChip
		{M: 512, N: 256, K: 512, G: 8, OffChip: true}, // off-chip must be square
	}
	for i, cfg := range bad {
		if _, err := RunMatmul(newHost(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestMatmulSingleCoreTableIV(t *testing.T) {
	// Table IV: single-core GFLOPS from 0.85 (8^3, 70.5%) to 1.15
	// (32^3, 95.9%), monotonically increasing.
	want := map[int][2]float64{ // n -> [lo%, hi%]
		8:  {60, 78},
		16: {82, 93},
		20: {86, 95},
		24: {88, 96},
		32: {91, 98},
	}
	prev := 0.0
	for _, n := range []int{8, 16, 20, 24, 32} {
		res := runMM(t, MatmulConfig{M: n, N: n, K: n, G: 1, Tuned: true})
		w := want[n]
		if res.PctPeak < w[0] || res.PctPeak > w[1] {
			t.Errorf("n=%d: %.1f%% of peak (%.3f GFLOPS), want [%v,%v]", n, res.PctPeak, res.GFLOPS, w[0], w[1])
		}
		if res.PctPeak <= prev {
			t.Errorf("n=%d: efficiency not increasing", n)
		}
		prev = res.PctPeak
	}
}

func TestMatmulNaive60PercentOfTuned(t *testing.T) {
	tuned := runMM(t, MatmulConfig{M: 32, N: 32, K: 32, G: 1, Tuned: true})
	naive := runMM(t, MatmulConfig{M: 32, N: 32, K: 32, G: 1, Tuned: false})
	ratio := naive.GFLOPS / tuned.GFLOPS
	if ratio < 0.5 || ratio > 0.75 {
		t.Fatalf("naive/tuned = %.2f, paper: ~0.6", ratio)
	}
}

func TestMatmulTableVScalingShape(t *testing.T) {
	// Table V: for fixed per-core block size, efficiency is nearly flat
	// across 2x2 / 4x4 / 8x8 (Cannon's comm is nearest-neighbour), and
	// rises steeply with block size.
	effAt := func(g, blk int) float64 {
		res := runMM(t, MatmulConfig{M: g * blk, N: g * blk, K: g * blk, G: g, Tuned: true})
		return res.PctPeak
	}
	e2 := effAt(2, 16)
	e4 := effAt(4, 16)
	e8 := effAt(8, 16)
	if diff := e8 - e2; diff > 6 || diff < -12 {
		t.Errorf("16-block efficiency across grids: 2x2=%.1f 4x4=%.1f 8x8=%.1f; paper is nearly flat", e2, e4, e8)
	}
	small := effAt(4, 8)
	big := effAt(4, 32)
	if big-small < 25 {
		t.Errorf("block-size effect too weak: 8->%.1f%%, 32->%.1f%%; paper: 26%% -> 85%%", small, big)
	}
	if small > 45 {
		t.Errorf("8x8-block efficiency %.1f%%, paper: ~26%%", small)
	}
}

func TestMatmulOffChipCorrectness(t *testing.T) {
	// Small paged case: 64x64 over a 2x2 group pages 32-wide per-core
	// tiles (Q=1 would fit on chip; use Q=2 by halving the tile edge).
	verifyMM(t, MatmulConfig{M: 128, N: 128, K: 128, G: 2, OffChip: true, Tuned: true, Seed: 9})
}

func TestMatmulOffChipDominatedByTransfers(t *testing.T) {
	// Table VI shape: shared-memory transfers take ~87% of core time.
	res := runMM(t, MatmulConfig{M: 512, N: 512, K: 512, G: 8, OffChip: true, Tuned: true})
	if pct := res.Metrics().PctTransfer(); pct < 75 || pct > 95 {
		t.Errorf("transfer share %.1f%%, paper: 87.2%%", pct)
	}
	// Paper: 8.32 GFLOPS (10.8% of peak).
	if res.GFLOPS < 6.5 || res.GFLOPS > 11 {
		t.Errorf("off-chip 512^3: %.2f GFLOPS, paper: 8.32", res.GFLOPS)
	}
}

func TestMatmulDeterministic(t *testing.T) {
	cfg := MatmulConfig{M: 64, N: 64, K: 64, G: 4, Tuned: true, Seed: 42}
	a := runMM(t, cfg)
	b := runMM(t, cfg)
	if a.Elapsed != b.Elapsed || a.GFLOPS != b.GFLOPS {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if d := MaxAbsDiff(a.C, b.C); d != 0 {
		t.Fatalf("results differ across runs: %g", d)
	}
}

// TestOffChipMatmulSchemeDoubleRegression is the hard pin on the fixed
// schemeDouble rotation race (formerly the skip-on-bug reproducer
// TestOffChipMatmulSchemeDoubleRaceKnown). The old protocol posted its
// compute-done flag *before* forwarding its current buffers, so a
// neighbour - gated only on that flag - could overwrite a buffer still
// being forwarded. On-chip runs start in lockstep and never opened the
// window; the off-chip driver's eLink-serialized tile loads skew core
// start times by whole DMA lengths and corrupted every g=8 sub-32 tile
// (including the registered matmul-offchip preset, M=128 G=8 edge=16).
// The rotation now gates overwrites on the target's flagFwd send
// credit, which is granted only after the forwards complete. Every
// schemeDouble shape on an 8x8 group - per-core tile edges 8, 16 and
// 24, on-chip and off-chip - must now be exact to the host reference.
func TestOffChipMatmulSchemeDoubleRegression(t *testing.T) {
	cases := []struct {
		name string
		cfg  MatmulConfig
	}{
		// On-chip: M = 8*edge puts edge^3 blocks on every core.
		{"onchip-edge8", MatmulConfig{M: 64, N: 64, K: 64, G: 8}},
		{"onchip-edge16", MatmulConfig{M: 128, N: 128, K: 128, G: 8}},
		{"onchip-edge24", MatmulConfig{M: 192, N: 192, K: 192, G: 8}},
		// Off-chip: the pinned edge selects the schemeDouble pager.
		// edge8 at M=128 runs Q=2 tile passes, so the cross-pass send
		// credit (granted on a pass's rotation-less final round) is
		// exercised too; edge16 at M=128 is the matmul-offchip preset's
		// exact shape, the one the old race corrupted.
		{"offchip-edge8", MatmulConfig{M: 128, N: 128, K: 128, G: 8, OffChip: true, OffChipEdge: 8}},
		{"offchip-edge16", MatmulConfig{M: 128, N: 128, K: 128, G: 8, OffChip: true, OffChipEdge: 16}},
		{"offchip-edge24", MatmulConfig{M: 192, N: 192, K: 192, G: 8, OffChip: true, OffChipEdge: 24}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Tuned = true
			cfg.Verify = true
			cfg.Seed = 3
			m, n, k, err := cfg.blockDims()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.OffChip {
				m, n, k = cfg.OffChipEdge, cfg.OffChipEdge, cfg.OffChipEdge
			}
			plan, err := planMatmul(m, n, k, cfg.G)
			if err != nil {
				t.Fatal(err)
			}
			if plan.scheme != schemeDouble {
				t.Fatalf("%dx%dx%d per-core block plans %v, want schemeDouble", m, n, k, plan.scheme)
			}
			res := runMM(t, cfg)
			if d := MaxAbsDiff(res.C, MatmulReference(cfg)); d != 0 {
				t.Errorf("schemeDouble race regressed: max |diff| vs host reference %g, want 0", d)
			}
		})
	}
}

// TestSchemeDoubleSeededDifferential holds the repaired rotation
// protocol to the host reference across a seeded spread of shapes that
// vary the eLink start-time skew (tile edge and group size change the
// serialized DMA lengths that stagger core start times). Timing is
// data-independent, so the seeds' job is to move the operand values:
// any reopened overwrite window corrupts different elements under
// different seeds and cannot hide behind one lucky input.
func TestSchemeDoubleSeededDifferential(t *testing.T) {
	shapes := []MatmulConfig{
		{M: 128, N: 128, K: 128, G: 8, OffChip: true, OffChipEdge: 16}, // the preset's shape
		{M: 128, N: 128, K: 128, G: 8, OffChip: true, OffChipEdge: 8},  // multi-pass paging
		{M: 192, N: 192, K: 192, G: 8, OffChip: true, OffChipEdge: 24}, // the paper's 24-wide tiles
		{M: 64, N: 64, K: 64, G: 4, OffChip: true, OffChipEdge: 8},     // smaller torus, different skew
		{M: 64, N: 64, K: 64, G: 4},                                    // on-chip lockstep control
	}
	for _, base := range shapes {
		for _, seed := range []uint64{1, 0x9e3779b97f4a7c15, 0xdeadbeef, 424242} {
			cfg := base
			cfg.Tuned = true
			cfg.Verify = true
			cfg.Seed = seed
			res := runMM(t, cfg)
			if d := MaxAbsDiff(res.C, MatmulReference(cfg)); d != 0 {
				t.Errorf("M=%d G=%d offchip=%v edge=%d seed=%#x: max |diff| vs host reference %g, want 0",
					cfg.M, cfg.G, cfg.OffChip, cfg.OffChipEdge, seed, d)
			}
		}
	}
}
