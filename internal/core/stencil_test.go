package core

import (
	"math"
	"strings"
	"testing"

	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/sim"
)

func newHost() *host.Host {
	eng := sim.NewEngine()
	return host.New(ecore.NewChip(eng, 8, 8))
}

func almostEqualGrid(t *testing.T, got, want [][]float32, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grid rows %d vs %d", len(got), len(want))
	}
	worst := 0.0
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("row %d length %d vs %d", r, len(got[r]), len(want[r]))
		}
		for c := range got[r] {
			if d := math.Abs(float64(got[r][c] - want[r][c])); d > worst {
				worst = d
			}
		}
	}
	if worst > tol {
		t.Fatalf("grids differ by %g (tol %g)", worst, tol)
	}
}

func TestStencilSingleCoreCorrectness(t *testing.T) {
	cfg := StencilConfig{
		Rows: 12, Cols: 20, Iters: 5,
		GroupRows: 1, GroupCols: 1,
		Comm: true, Tuned: true, Seed: 3,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 1e-3)
}

func TestStencilMultiCoreMatchesGlobalJacobi(t *testing.T) {
	// The headline correctness property: the distributed kernel with DMA
	// halo exchange computes exactly global Jacobi iteration.
	cfg := StencilConfig{
		Rows: 8, Cols: 20, Iters: 6,
		GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Seed: 11,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 1e-3)
}

func TestStencil4x4Correctness(t *testing.T) {
	cfg := StencilConfig{
		Rows: 6, Cols: 20, Iters: 4,
		GroupRows: 4, GroupCols: 4,
		Comm: true, Tuned: true, Seed: 5,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 1e-3)
}

func TestStencilNoCommReplicated(t *testing.T) {
	cfg := StencilConfig{
		Rows: 10, Cols: 20, Iters: 5,
		GroupRows: 2, GroupCols: 2,
		Comm: false, Tuned: true, Seed: 9,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 1e-3)
}

func TestStencilNaiveSameAnswerSlower(t *testing.T) {
	base := StencilConfig{
		Rows: 8, Cols: 20, Iters: 3,
		GroupRows: 1, GroupCols: 1, Comm: true, Seed: 2,
	}
	tuned := base
	tuned.Tuned = true
	naive := base
	naive.Tuned = false
	rt, err := RunStencil(newHost(), tuned)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunStencil(newHost(), naive)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, rt.Global, rn.Global, 0)
	if rn.Elapsed <= rt.Elapsed*3 {
		t.Fatalf("naive (%v) should be several times slower than tuned (%v)", rn.Elapsed, rt.Elapsed)
	}
}

func TestStencilSingleCorePerformanceFig5(t *testing.T) {
	// Figure 5 anchors: single-core performance between 0.97 and 1.14
	// GFLOPS (81-95% of the 1.2 GFLOPS peak) across grid shapes, with
	// taller-than-wide grids doing better.
	shapes := []struct{ rows, cols int }{
		{20, 20}, {40, 20}, {80, 20}, {20, 40}, {20, 80}, {40, 40},
	}
	perf := map[[2]int]float64{}
	for _, s := range shapes {
		cfg := StencilConfig{
			Rows: s.rows, Cols: s.cols, Iters: 50,
			GroupRows: 1, GroupCols: 1, Comm: false, Tuned: true,
		}
		res, err := RunStencil(newHost(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		perf[[2]int{s.rows, s.cols}] = res.GFLOPS
		if res.PctPeak < 78 || res.PctPeak > 97 {
			t.Errorf("%dx%d: %.1f%% of peak, want 81-95%%", s.rows, s.cols, res.PctPeak)
		}
	}
	if perf[[2]int{80, 20}] <= perf[[2]int{20, 80}] {
		t.Errorf("80x20 (%.3f) should outperform 20x80 (%.3f): more rows than columns is better",
			perf[[2]int{80, 20}], perf[[2]int{20, 80}])
	}
	if perf[[2]int{80, 20}] < 1.05 {
		t.Errorf("best single-core config %.3f GFLOPS, paper reaches 1.14", perf[[2]int{80, 20}])
	}
}

func TestStencil64CorePerformanceFig6(t *testing.T) {
	// Figure 6 anchors: 64 cores, 80x20 per-core grid: ~72.8 GFLOPS
	// replicated, dropping to ~63.6 GFLOPS (82.8% of peak) with
	// communication.
	noComm := StencilConfig{
		Rows: 80, Cols: 20, Iters: 50,
		GroupRows: 8, GroupCols: 8, Comm: false, Tuned: true,
	}
	rn, err := RunStencil(newHost(), noComm)
	if err != nil {
		t.Fatal(err)
	}
	if rn.GFLOPS < 68 || rn.GFLOPS > 76.8 {
		t.Errorf("replicated 64-core: %.1f GFLOPS, paper: 72.8", rn.GFLOPS)
	}
	comm := noComm
	comm.Comm = true
	rc, err := RunStencil(newHost(), comm)
	if err != nil {
		t.Fatal(err)
	}
	if rc.GFLOPS >= rn.GFLOPS {
		t.Fatalf("communication (%.1f) must cost performance vs replicated (%.1f)", rc.GFLOPS, rn.GFLOPS)
	}
	drop := 100 * (rn.GFLOPS - rc.GFLOPS) / rn.GFLOPS
	if drop < 3 || drop > 20 {
		t.Errorf("comm drop %.1f%%, paper: ~12.7%%", drop)
	}
}

func TestStencilCommDirectionAsymmetry(t *testing.T) {
	// Paper: "grids with more columns than rows show less performance
	// drop than equivalent grids with more rows than columns" (column
	// edges move as slow word-mode 2D DMA).
	drop := func(rows, cols int) float64 {
		base := StencilConfig{Rows: rows, Cols: cols, Iters: 30,
			GroupRows: 4, GroupCols: 4, Tuned: true}
		nc := base
		nc.Comm = false
		rn, err := RunStencil(newHost(), nc)
		if err != nil {
			t.Fatal(err)
		}
		wc := base
		wc.Comm = true
		rc, err := RunStencil(newHost(), wc)
		if err != nil {
			t.Fatal(err)
		}
		return (rn.GFLOPS - rc.GFLOPS) / rn.GFLOPS
	}
	tall := drop(80, 20)
	wide := drop(20, 80)
	if wide >= tall {
		t.Fatalf("wide-grid comm drop (%.3f) should be below tall-grid drop (%.3f)", wide, tall)
	}
}

func TestStencilConfigValidation(t *testing.T) {
	bad := []StencilConfig{
		{Rows: 0, Cols: 20, Iters: 1, GroupRows: 1, GroupCols: 1},
		{Rows: 20, Cols: 21, Iters: 1, GroupRows: 1, GroupCols: 1, Tuned: true},
		{Rows: 200, Cols: 40, Iters: 1, GroupRows: 1, GroupCols: 1}, // grid too big
		{Rows: 20, Cols: 20, Iters: 1, GroupRows: 9, GroupCols: 1},  // no such group
	}
	for i, cfg := range bad {
		if _, err := RunStencil(newHost(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestStencilComputeModelAnchors(t *testing.T) {
	// 80x20 tuned: ~95% of the 2 flops/cycle peak.
	cyc, flops := StencilComputeModel(80, 20, true)
	eff := float64(flops) / float64(cyc) / 2
	if eff < 0.92 || eff > 0.99 {
		t.Errorf("80x20 model efficiency %.3f, want ~0.95", eff)
	}
	// Naive is a small fraction of peak.
	cyc, flops = StencilComputeModel(80, 20, false)
	eff = float64(flops) / float64(cyc) / 2
	if eff > 0.3 {
		t.Errorf("naive model efficiency %.3f, want < 0.3", eff)
	}
}

func TestStencilCrossShapeSingleCore(t *testing.T) {
	cfg := StencilConfig{
		Rows: 12, Cols: 20, Iters: 5,
		GroupRows: 1, GroupCols: 1,
		Comm: true, Tuned: true, Shape: Cross, Seed: 13,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 0)
}

func TestStencilCrossShapeDistributed(t *testing.T) {
	// The headline property for the diagonal variant: corner halo values
	// propagate correctly through the two-phase exchange, so the
	// distributed run equals global diagonal Jacobi exactly.
	cfg := StencilConfig{
		Rows: 8, Cols: 20, Iters: 6,
		GroupRows: 2, GroupCols: 4,
		Comm: true, Tuned: true, Shape: Cross, Seed: 14,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 0)
}

func TestStencilCrossRejectsDirectComm(t *testing.T) {
	cfg := StencilConfig{
		Rows: 8, Cols: 20, Iters: 1,
		GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Shape: Cross, DirectComm: true,
	}
	if _, err := RunStencil(newHost(), cfg); err == nil {
		t.Fatal("Cross with DirectComm should be rejected (no corner values)")
	}
}

func TestStencilCrossCostsMoreComm(t *testing.T) {
	// The two-phase exchange serializes column and row DMA: the cross
	// variant must be somewhat slower than plus at the same size.
	base := StencilConfig{
		Rows: 40, Cols: 20, Iters: 20,
		GroupRows: 4, GroupCols: 4, Comm: true, Tuned: true,
	}
	plus, err := RunStencil(newHost(), base)
	if err != nil {
		t.Fatal(err)
	}
	cross := base
	cross.Shape = Cross
	xres, err := RunStencil(newHost(), cross)
	if err != nil {
		t.Fatal(err)
	}
	if xres.Elapsed <= plus.Elapsed {
		t.Fatalf("cross (%v) should cost more than plus (%v)", xres.Elapsed, plus.Elapsed)
	}
	if xres.Elapsed > plus.Elapsed*3/2 {
		t.Fatalf("cross (%v) over 1.5x plus (%v): exchange model off", xres.Elapsed, plus.Elapsed)
	}
}

// TestStencilInitialField: both stencil drivers run a supplied field to
// their references without writing to it, and a field with a row of
// the wrong width is refused.
func TestStencilInitialField(t *testing.T) {
	field := make([][]float32, 2*8+2)
	for r := range field {
		field[r] = make([]float32, 2*20+2)
		for c := range field[r] {
			field[r][c] = float32((r*7+c*3)%11) * 10
		}
	}
	orig := field[1][1]
	cfg := StencilConfig{
		Rows: 8, Cols: 20, Iters: 4, GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Initial: field,
	}
	res, err := RunStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StencilReference(cfg), 1e-3)
	scfg := StreamStencilConfig{
		GlobalRows: 16, GlobalCols: 40, BlockRows: 8, BlockCols: 20,
		Iters: 4, TBlock: 2, GroupRows: 2, GroupCols: 2, Initial: field,
	}
	sres, err := RunStreamStencil(newHost(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, sres.Global, StreamStencilReference(scfg), 1e-3)
	if field[1][1] != orig {
		t.Fatal("a run wrote to the supplied field")
	}

	ragged := append([][]float32(nil), field...)
	ragged[3] = ragged[3][:len(ragged[3])-1]
	cfg.Initial = ragged
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "row 3 has 41 values, want 42") {
			t.Fatalf("ragged field: panic %q", msg)
		}
	}()
	_, _ = RunStencil(newHost(), cfg)
}
