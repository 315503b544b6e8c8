package isa

// Pipeline is the cycle-accurate issue model of one eCore.
//
// Issue rules (paper §VI plus the Epiphany architecture reference):
//   - In-order, at most two instructions per cycle: one FPU-lane and one
//     IALU-lane, in either program order within the pair window.
//   - An instruction issues only when every register it reads is ready;
//     FPU results take FMADDLatency cycles, loads LoadLatency.
//   - A blocked instruction blocks everything behind it (no reordering
//     beyond the 2-wide pair window).
//   - A taken BRANCH costs BranchPenalty cycles.
//
// The scoreboard (readyAt) persists across Run calls so loop iterations
// see each other's in-flight results, exactly as consecutive iterations
// do on hardware.
type Pipeline struct {
	readyAt [NumRegs]uint64
	cycle   uint64
	issued  uint64
	stalls  uint64
}

// NewPipeline returns a pipeline at cycle 0 with all registers ready.
func NewPipeline() *Pipeline { return &Pipeline{} }

// Cycle returns the current cycle count.
func (p *Pipeline) Cycle() uint64 { return p.cycle }

// Issued returns the number of instructions issued so far.
func (p *Pipeline) Issued() uint64 { return p.issued }

// Stalls returns the cycles in which nothing issued due to hazards.
func (p *Pipeline) Stalls() uint64 { return p.stalls }

// ready reports whether op's sources are available at the current cycle.
func (p *Pipeline) ready(op Op) bool {
	for _, r := range op.Src {
		if p.readyAt[r] > p.cycle {
			return false
		}
	}
	// 64-bit stores read a register pair.
	if op.Kind == STORE64 && len(op.Src) > 0 {
		if r := op.Src[0] + 1; int(r) < NumRegs && p.readyAt[r] > p.cycle {
			return false
		}
	}
	return true
}

// retire updates the scoreboard for an issued op.
func (p *Pipeline) retire(op Op) {
	p.issued++
	if op.writesDst() {
		p.readyAt[op.Dst] = p.cycle + op.latency()
		if op.Kind == LOAD64 && int(op.Dst)+1 < NumRegs {
			p.readyAt[op.Dst+1] = p.cycle + op.latency()
		}
	}
}

// Run issues prog to completion and returns the cycles it consumed.
func (p *Pipeline) Run(prog []Op) uint64 {
	start := p.cycle
	i := 0
	for i < len(prog) {
		op := prog[i]
		if op.Kind == BRANCH {
			p.cycle += BranchPenalty
			p.issued++
			i++
			continue
		}
		if !p.ready(op) {
			p.cycle++
			p.stalls++
			continue
		}
		p.retire(op)
		// Try to dual-issue the next instruction if it uses the other
		// lane and is itself ready (and is not a branch).
		if i+1 < len(prog) {
			nxt := prog[i+1]
			if nxt.Kind != BRANCH && nxt.Kind.FPU() != op.Kind.FPU() && p.ready(nxt) {
				p.retire(nxt)
				i++
			}
		}
		p.cycle++
		i++
	}
	return p.cycle - start
}

// LoopCycles simulates a loop executing body iters times (with the
// scoreboard carried across iterations) and returns total cycles. For
// large iteration counts it simulates a few iterations to find the
// steady-state cost and extrapolates, which is exact for the periodic
// schedules this package builds.
func LoopCycles(body []Op, iters uint64) uint64 {
	if iters == 0 {
		return 0
	}
	p := NewPipeline()
	const probe = 4
	if iters <= probe {
		for k := uint64(0); k < iters; k++ {
			p.Run(body)
		}
		return p.Cycle()
	}
	var marks [probe]uint64
	for k := 0; k < probe; k++ {
		p.Run(body)
		marks[k] = p.Cycle()
	}
	// Steady state: the per-iteration cost once the pipeline warmed up.
	steady := marks[probe-1] - marks[probe-2]
	return marks[probe-1] + (iters-probe)*steady
}
