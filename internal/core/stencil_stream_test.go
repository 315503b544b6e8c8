package core

import (
	"testing"
)

func TestStreamStencilMatchesGlobalJacobi(t *testing.T) {
	cfg := StreamStencilConfig{
		GlobalRows: 64, GlobalCols: 64,
		BlockRows: 16, BlockCols: 16,
		Iters: 6, TBlock: 3,
		GroupRows: 2, GroupCols: 2,
		Seed: 4,
	}
	res, err := RunStreamStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StreamStencilReference(cfg), 0)
}

func TestStreamStencilTailChunk(t *testing.T) {
	// Iters not a multiple of TBlock: the last chunk is short.
	cfg := StreamStencilConfig{
		GlobalRows: 32, GlobalCols: 32,
		BlockRows: 16, BlockCols: 16,
		Iters: 7, TBlock: 3,
		GroupRows: 2, GroupCols: 2,
		Seed: 5,
	}
	res, err := RunStreamStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StreamStencilReference(cfg), 0)
}

func TestStreamStencilNoTemporalBlocking(t *testing.T) {
	cfg := StreamStencilConfig{
		GlobalRows: 32, GlobalCols: 64,
		BlockRows: 16, BlockCols: 16,
		Iters: 4, TBlock: 1,
		GroupRows: 2, GroupCols: 4,
		Seed: 6,
	}
	res, err := RunStreamStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StreamStencilReference(cfg), 0)
	if res.RedundantFlops != 0 {
		t.Fatalf("T=1 should do no redundant work, got %d flops", res.RedundantFlops)
	}
}

func TestStreamStencilMultipleSuperBlocks(t *testing.T) {
	// The grid is 4x the chip's footprint: blocks stream through.
	cfg := StreamStencilConfig{
		GlobalRows: 128, GlobalCols: 64,
		BlockRows: 16, BlockCols: 16,
		Iters: 4, TBlock: 2,
		GroupRows: 4, GroupCols: 2,
		Seed: 7,
	}
	res, err := RunStreamStencil(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	almostEqualGrid(t, res.Global, StreamStencilReference(cfg), 0)
}

func TestStreamStencilTemporalBlockingSavesTraffic(t *testing.T) {
	base := StreamStencilConfig{
		GlobalRows: 256, GlobalCols: 256,
		BlockRows: 32, BlockCols: 32,
		Iters:     8,
		GroupRows: 8, GroupCols: 8,
		Seed: 8,
	}
	t1 := base
	t1.TBlock = 1
	r1, err := RunStreamStencil(newHost(), t1)
	if err != nil {
		t.Fatal(err)
	}
	t4 := base
	t4.TBlock = 4
	r4, err := RunStreamStencil(newHost(), t4)
	if err != nil {
		t.Fatal(err)
	}
	// Same answer.
	almostEqualGrid(t, r1.Global, r4.Global, 0)
	// Much less DRAM traffic and a faster wall clock: the whole point.
	if float64(r4.DRAMBytes) > 0.45*float64(r1.DRAMBytes) {
		t.Fatalf("T=4 moved %d bytes vs %d at T=1; want < 45%%", r4.DRAMBytes, r1.DRAMBytes)
	}
	if r4.Elapsed >= r1.Elapsed {
		t.Fatalf("T=4 (%v) not faster than T=1 (%v)", r4.Elapsed, r1.Elapsed)
	}
	if r4.RedundantFlops == 0 {
		t.Fatal("T=4 must do redundant halo work")
	}
}

func TestStreamStencilValidation(t *testing.T) {
	bad := []StreamStencilConfig{
		{GlobalRows: 0, GlobalCols: 64, BlockRows: 16, BlockCols: 16, Iters: 1, TBlock: 1, GroupRows: 2, GroupCols: 2},
		{GlobalRows: 60, GlobalCols: 64, BlockRows: 16, BlockCols: 16, Iters: 1, TBlock: 1, GroupRows: 2, GroupCols: 2}, // not tileable
		{GlobalRows: 64, GlobalCols: 64, BlockRows: 16, BlockCols: 16, Iters: 1, TBlock: 0, GroupRows: 2, GroupCols: 2},
		{GlobalRows: 4096, GlobalCols: 4096, BlockRows: 64, BlockCols: 64, Iters: 1, TBlock: 4, GroupRows: 8, GroupCols: 8}, // block too big
		{GlobalRows: 256, GlobalCols: 256, BlockRows: 8, BlockCols: 8, Iters: 4, TBlock: 2, GroupRows: 16, GroupCols: 16},   // past the barrier's arrival words
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
