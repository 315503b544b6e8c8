package epiphany

import (
	"context"
	"testing"
)

func TestPublicStencilAPI(t *testing.T) {
	cfg := StencilConfig{
		Rows: 20, Cols: 20, Iters: 5,
		GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Seed: 1,
	}
	out, err := Run(context.Background(), &StencilWorkload{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*StencilResult)
	if res.GFLOPS <= 0 || res.PctPeak <= 0 || res.Elapsed == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	ref := StencilReference(cfg)
	for r := range ref {
		for c := range ref[r] {
			if ref[r][c] != res.Global[r][c] {
				t.Fatalf("mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestPublicMatmulAPI(t *testing.T) {
	cfg := MatmulConfig{M: 64, N: 64, K: 64, G: 4, Tuned: true, Verify: true, Seed: 2}
	out, err := Run(context.Background(), &MatmulWorkload{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*MatmulResult)
	if d := MaxAbsDiff(res.C, MatmulReference(cfg)); d != 0 {
		t.Fatalf("diff vs reference: %g", d)
	}
}

func TestSystemIsSingleUse(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem()
	w := &StencilWorkload{Config: StencilConfig{Rows: 20, Cols: 20, Iters: 1, GroupRows: 1, GroupCols: 1, Tuned: true}}
	if _, err := w.Run(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx, sys); err == nil {
		t.Fatal("second run on the same System must be refused")
	}
}

func TestSystemSize(t *testing.T) {
	sys := NewSystemTopology(mustTopology(t, "4x4"))
	if sys.Chip().NumCores() != 16 {
		t.Fatalf("cores = %d", sys.Chip().NumCores())
	}
	w, err := sys.NewWorkgroup(0, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 16 {
		t.Fatalf("workgroup size = %d", w.Size())
	}
	if _, err := sys.NewWorkgroup(0, 0, 8, 8); err == nil {
		t.Fatal("oversized workgroup accepted on a 4x4 chip")
	}
}

func TestDeterminismAcrossSystems(t *testing.T) {
	run := func() (Time, float64) {
		res, err := Run(context.Background(), &MatmulWorkload{Config: MatmulConfig{
			M: 64, N: 64, K: 64, G: 2, Tuned: true, Seed: 9,
		}})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics()
		return m.Elapsed, m.GFLOPS
	}
	t1, g1 := run()
	t2, g2 := run()
	if t1 != t2 || g1 != g2 {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", t1, g1, t2, g2)
	}
}

func TestExperimentRegistryExported(t *testing.T) {
	if len(Experiments) != 15 {
		t.Fatalf("%d experiments exported, want 15", len(Experiments))
	}
	e, ok := ExperimentByName("table4")
	if !ok {
		t.Fatal("table4 missing")
	}
	tab := e.Run()
	if len(tab.Rows) != 5 {
		t.Fatalf("table4 rows = %d, want 5", len(tab.Rows))
	}
}
