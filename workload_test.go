package epiphany

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) < 8 {
		t.Fatalf("%d workloads registered, want >= 8 built-in presets", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Name() >= ws[i].Name() {
			t.Fatalf("Workloads() not sorted: %q before %q", ws[i-1].Name(), ws[i].Name())
		}
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("built-in %q does not validate: %v", w.Name(), err)
		}
	}
	w, ok := WorkloadByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned missing from the registry")
	}
	if w.Name() != "stencil-tuned" {
		t.Fatalf("lookup returned %q", w.Name())
	}
	if _, ok := WorkloadByName("no-such-workload"); ok {
		t.Fatal("phantom workload resolved")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(&StencilWorkload{Label: "stencil-tuned"})
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil registration must panic")
		}
	}()
	Register(nil)
}

func TestRunValidates(t *testing.T) {
	_, err := Run(context.Background(), &StencilWorkload{Config: StencilConfig{
		Rows: -1, Cols: 20, Iters: 1, GroupRows: 1, GroupCols: 1,
	}})
	if err == nil {
		t.Fatal("invalid config must be refused before simulating")
	}
}

// mustTopology parses a topology-grammar spelling, failing the test on
// error.
func mustTopology(t testing.TB, spec string) Topology {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestRunWithMeshSize(t *testing.T) {
	w, _ := WorkloadByName("stencil-tuned")
	if _, err := Run(context.Background(), w, WithTopology(mustTopology(t, "2x2"))); err != nil {
		t.Fatalf("2x2 mesh: %v", err)
	}
	// The built-ins implement TopologyFitter: the 2x2 workgroup clamps
	// itself to a 1x1 device instead of failing.
	res, err := Run(context.Background(), w, WithTopology(mustTopology(t, "1x1")))
	if err != nil {
		t.Fatalf("1x1 mesh: %v", err)
	}
	if g := res.(*StencilResult).Global; len(g) != 40 {
		t.Fatalf("clamped single-core run gathered %d rows, want 40", len(g))
	}
	// An impossible device is still refused: by the grammar, and by Run
	// when built as a Go value.
	if _, err := ParseTopology("0x8"); err == nil {
		t.Fatal("the grammar accepted a zero-row mesh")
	}
	zeroRows := Topology{ChipGridRows: 1, ChipGridCols: 1, CoreRows: 0, CoreCols: 8}
	if _, err := Run(context.Background(), w, WithTopology(zeroRows)); err == nil {
		t.Fatal("a zero-row mesh must be refused")
	}
}

// TestOffChipTileChecksInValidate: the off-chip pager's tile checks run
// in Validate, so topology fitting sees them. A 40^3 product tiles 8-wide
// only over a 1x1 group: on e16 FitTopology steps past G=4 and G=2 to
// G=1, which runs; on e64 G=8 fits the board, so Validate refuses the
// spec before a board is taken.
func TestOffChipTileChecksInValidate(t *testing.T) {
	w, err := ParseWorkload("matmul-offchip/m=40/n=40/k=40")
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.(*MatmulWorkload).Config
	e16 := mustTopology(t, "e16")
	if g := w.(TopologyFitter).FitTopology(e16.Rows(), e16.Cols()).(*MatmulWorkload).Config.G; g != 1 {
		t.Fatalf("e16 fitted the group edge to %d, want 1", g)
	}
	res, err := Run(context.Background(), w, WithTopology(e16))
	if err != nil {
		t.Fatalf("e16: %v", err)
	}
	if d := MaxAbsDiff(res.(*MatmulResult).C, MatmulReference(cfg)); d != 0 {
		t.Fatalf("e16: max |diff| %g vs the host reference", d)
	}

	const want = "matrix edge 40 not tileable over a 8x8 group"
	if err := w.(TopologyFitter).FitTopology(8, 8).Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("e64 Validate: %v, want %q", err, want)
	}
	if _, err := Run(context.Background(), w); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("e64 Run: %v, want %q", err, want)
	}
}

// TestMatmulBlockChecksInValidate: shapes a matmul run cannot execute
// fail Validate, not the run. Blocks whose byte size is not whole
// 8-byte DMA beats (5x5 floats are 100 bytes) would panic in the
// rotation's sends; a SUMMA shape with 32^3 per-core blocks has no room
// for the panel workspace. Off chip on e16, fitting steps past the
// unmovable 5-wide tiles of G=4 and G=2 to G=1, which rotates nothing
// and runs.
func TestMatmulBlockChecksInValidate(t *testing.T) {
	const beats = "are not whole 8-byte DMA beats"
	for _, c := range []struct{ spec, want string }{
		{"matmul-cannon/m=20/n=20/k=20/g=4", "core: 5x5x5 per-core blocks (100-byte A, 100-byte B) " + beats},
		{"matmul-summa/m=20/n=20/k=20/g=4", "core: 5x5x5 per-core blocks (100-byte A, 100-byte B) " + beats},
		{"matmul-offchip/m=40/n=40/k=40/g=8/edge=5", "core: 5x5x5 per-core blocks (100-byte A, 100-byte B) " + beats},
		{"matmul-summa/m=128/n=128/k=128/g=4", "core: SUMMA needs panel workspace; 32x32x32 per-core blocks leave no room (Cannon's half-buffer trick does not apply)"},
	} {
		w, err := ParseWorkload(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.spec, err, c.want)
		}
		if _, err := Run(context.Background(), w); err == nil || err.Error() != c.want {
			t.Errorf("%s: Run on e64 = %v, want %q", c.spec, err, c.want)
		}
	}
	w, err := ParseWorkload("matmul-offchip/m=40/n=40/k=40/g=8/edge=5")
	if err != nil {
		t.Fatal(err)
	}
	e16 := mustTopology(t, "e16")
	if g := w.(TopologyFitter).FitTopology(e16.Rows(), e16.Cols()).(*MatmulWorkload).Config.G; g != 1 {
		t.Fatalf("e16 fitted the group edge to %d, want 1", g)
	}
	res, err := Run(context.Background(), w, WithTopology(e16))
	if err != nil {
		t.Fatalf("e16: %v", err)
	}
	if d := MaxAbsDiff(res.(*MatmulResult).C, MatmulReference(w.(*MatmulWorkload).Config)); d != 0 {
		t.Fatalf("e16: max |diff| %g vs the host reference", d)
	}
}

func TestRunWithSeed(t *testing.T) {
	w := &StencilWorkload{Config: StencilConfig{
		Rows: 20, Cols: 20, Iters: 2, GroupRows: 1, GroupCols: 1, Tuned: true, Seed: 1,
	}}
	run := func(opts ...Option) [][]float32 {
		res, err := Run(context.Background(), w, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.(*StencilResult).Global
	}
	a := run(WithSeed(5))
	b := run(WithSeed(5))
	c := run(WithSeed(6))
	if w.Config.Seed != 1 {
		t.Fatalf("WithSeed mutated the original workload (seed %d)", w.Config.Seed)
	}
	same := func(x, y [][]float32) bool {
		for r := range x {
			for col := range x[r] {
				if x[r][col] != y[r][col] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed must reproduce the same field")
	}
	if same(a, c) {
		t.Fatal("different seeds must produce different fields")
	}
}

func TestSystemSingleUsePointsAtRunner(t *testing.T) {
	sys := NewSystem()
	if err := sys.Acquire(); err != nil {
		t.Fatal(err)
	}
	err := sys.Acquire()
	if err == nil {
		t.Fatal("second Acquire must fail")
	}
	if !strings.Contains(err.Error(), "RunBatch") {
		t.Fatalf("reuse error should point at the batch API, got: %v", err)
	}
}

// TestParseWorkloadEquivalence: a workload spec runs exactly the config
// it spells. For each kind, a spec with integer, boolean and shape
// overrides must produce Metrics identical to the same config built as
// a Go struct, and its output must match the host reference bit for
// bit.
func TestParseWorkloadEquivalence(t *testing.T) {
	ctx := context.Background()
	run := func(w Workload) Result {
		t.Helper()
		res, err := Run(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		return res
	}
	parse := func(spec string) Workload {
		t.Helper()
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	scfg := StencilConfig{Rows: 20, Cols: 20, Iters: 3, GroupRows: 2, GroupCols: 1,
		Comm: true, Tuned: true, DirectComm: true, Seed: 11}
	sres := run(parse("stencil-tuned/rows=20/iters=3/group=2x1/direct=true")).(*StencilResult)
	if want := run(&StencilWorkload{Config: scfg}); !reflect.DeepEqual(sres.Metrics(), want.Metrics()) {
		t.Errorf("stencil spec metrics %+v, struct %+v", sres.Metrics(), want.Metrics())
	}
	if !reflect.DeepEqual(sres.Global, StencilReference(scfg)) {
		t.Error("stencil spec output differs from the host reference")
	}

	mcfg := MatmulConfig{M: 32, N: 32, K: 32, G: 2, Verify: true, Algorithm: "summa", Seed: 21}
	mres := run(parse("matmul-cannon/m=32/n=32/k=32/g=2/tuned=false/algo=summa")).(*MatmulResult)
	if want := run(&MatmulWorkload{Config: mcfg}); !reflect.DeepEqual(mres.Metrics(), want.Metrics()) {
		t.Errorf("matmul spec metrics %+v, struct %+v", mres.Metrics(), want.Metrics())
	}
	if !reflect.DeepEqual(mres.C, MatmulReference(mcfg)) {
		t.Error("matmul spec product differs from the host reference")
	}

	// The stream stencil has no boolean keys.
	tcfg := StreamStencilConfig{GlobalRows: 64, GlobalCols: 64, BlockRows: 8, BlockCols: 8,
		Iters: 4, TBlock: 4, GroupRows: 4, GroupCols: 4, Seed: 31}
	tres := run(parse("stream-stencil/grid=64x64/block=8x8/group=4x4/iters=4/t=4")).(*StreamStencilResult)
	if want := run(&StreamStencilWorkload{Config: tcfg}); !reflect.DeepEqual(tres.Metrics(), want.Metrics()) {
		t.Errorf("stream spec metrics %+v, struct %+v", tres.Metrics(), want.Metrics())
	}
	if !reflect.DeepEqual(tres.Global, StreamStencilReference(tcfg)) {
		t.Error("stream spec output differs from the host reference")
	}
}
