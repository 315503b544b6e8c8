package epiphany

import (
	"context"
	"runtime/debug"
	"testing"
)

// warmJobAllocs returns the heap allocations one job makes on a warm
// single-worker Runner: two runs build and warm the pooled board, then
// each measured run Resets and reuses it. The collector is off while
// it measures, so the count is the job's own and not the runtime's
// after a collection.
func warmJobAllocs(t *testing.T, topo string, w Workload) float64 {
	t.Helper()
	tp, err := ParseTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 1, Options: []Option{WithTopology(tp)}}
	ctx := context.Background()
	run := func() {
		if jr := r.RunJob(ctx, Job{Workload: w}); jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	run()
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(5, run)
}

// board1024Stencil is the chip-parallel stencil of the 1024-core board:
// a 32x24 Comm workgroup, 768 cores over 12 of its 16 chips.
var board1024Stencil = &StencilWorkload{Config: StencilConfig{
	Rows: 20, Cols: 20, Iters: 1, GroupRows: 32, GroupCols: 24,
	Comm: true, Tuned: true, Seed: 1,
}}

// TestWarmJobAllocs pins the allocations of a warm job: each preset on
// e64 and the 1024-core board's three jobs. A kernel's per-core state -
// its DMA descriptors, row buffers and Proc record - is kept per run or
// recycled by the engine, so the count does not grow with the
// workgroup: the 768-core stencil allocates what the 4-core
// stencil-tuned does, within a few allocations.
func TestWarmJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	pins := map[string]float64{
		"matmul-cannon":       21,
		"matmul-offchip":      19,
		"matmul-single":       21,
		"matmul-summa":        21,
		"stencil-cross":       22,
		"stencil-direct":      22,
		"stencil-naive":       22,
		"stencil-replicated":  22,
		"stencil-single":      22,
		"stencil-tuned":       22,
		"stream-stencil":      17,
		"stream-stencil-deep": 17,
	}
	got := map[string]float64{}
	for _, w := range Workloads() {
		pin, ok := pins[w.Name()]
		if !ok {
			t.Errorf("preset %s has no allocation pin", w.Name())
			continue
		}
		got[w.Name()] = warmJobAllocs(t, "e64", w)
		if got[w.Name()] > pin {
			t.Errorf("%s on e64: %.1f allocations per warm job, pinned at %v", w.Name(), got[w.Name()], pin)
		}
	}

	const board = "grid=4x4/chip=8x8"
	stencil := warmJobAllocs(t, board, board1024Stencil)
	if stencil > 22 {
		t.Errorf("768-core stencil on %s: %.1f allocations per warm job, pinned at 22", board, stencil)
	}
	if small := got["stencil-tuned"]; stencil > small+4 {
		t.Errorf("768-core stencil allocates %.1f times per warm job, the 4-core stencil-tuned %.1f: the count grows with the workgroup", stencil, small)
	}
	for _, c := range []struct {
		name string
		pin  float64
	}{{"matmul-offchip", 19}, {"stream-stencil", 17}} {
		w, _ := WorkloadByName(c.name)
		if n := warmJobAllocs(t, board, w); n > c.pin {
			t.Errorf("%s on %s: %.1f allocations per warm job, pinned at %v", c.name, board, n, c.pin)
		}
	}
}
