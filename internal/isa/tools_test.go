package isa

import "testing"

func TestValidateAcceptsBuiltSchedules(t *testing.T) {
	for name, prog := range map[string][]Op{
		"stencil-body":     StencilLoopBody(),
		"stencil-prologue": StencilPrologue(),
		"stencil-naive":    StencilNaiveBody(),
		"matmul-32":        MatmulRowBodyNK(32, 32),
		"matmul-8x16":      MatmulRowBodyNK(8, 16),
		"matmul-naive":     MatmulNaiveRowBodyNK(24, 24),
	} {
		if err := Validate(prog); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateRejectsBadOps(t *testing.T) {
	cases := map[string][]Op{
		"dst-oob":    {Op{Kind: IALU, Dst: 64}},
		"src-oob":    {Op{Kind: FMADD, Dst: 8, Src: []Reg{64, 2, 8}}},
		"pair-load":  {Load64(63)},
		"pair-store": {Store64(63)},
	}
	for name, prog := range cases {
		if err := Validate(prog); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// warmStalls runs prog twice to warm the scoreboard, then reports the
// ops of a third pass that stalled. Runs are in-order, so the stalls a
// prefix of prog adds over the next shorter prefix belong to its last op.
func warmStalls(prog []Op) []Op {
	warm := NewPipeline()
	warm.Run(prog)
	warm.Run(prog)
	var stalled []Op
	prev := warm.Stalls()
	for i := range prog {
		p := *warm
		p.Run(prog[:i+1])
		if p.Stalls() > prev {
			stalled = append(stalled, prog[i])
		}
		prev = p.Stalls()
	}
	return stalled
}

func TestProfileFindsNoStallsInTunedStencil(t *testing.T) {
	// The whole point of the paper's schedule: zero stalls in steady state.
	if stalled := warmStalls(StencilLoopBody()); len(stalled) != 0 {
		t.Fatalf("tuned stencil body stalls on %d ops in steady state; first: %+v", len(stalled), stalled[0])
	}
}

func TestProfileFindsStallsInNaive(t *testing.T) {
	stalled := warmStalls(StencilNaiveBody())
	if len(stalled) == 0 {
		t.Fatal("naive body should stall (single accumulator chain)")
	}
	// The stalls must be on the dependent FMADDs.
	for _, op := range stalled {
		if op.Kind != FMADD && op.Kind != STORE32 {
			t.Fatalf("unexpected stall on %v", op)
		}
	}
}
