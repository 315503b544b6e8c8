package core

import (
	"epiphany/internal/dma"
	"epiphany/internal/mem"
)

// SUMMA (van de Geijn & Watts), the algorithm the paper's §VIII contrasts
// with its Cannon implementation: instead of rotating blocks around a
// torus, each step broadcasts one column panel of A along the rows and
// one row panel of B along the columns, then performs a local
// rank-n update. No initial skew is needed and the grid need not be a
// torus; the cost is that broadcasts travel up to g-1 hops (pipelined
// store-and-forward here) where Cannon only ever talks to neighbours.

// SUMMA flag slots, continuing the table in matmul.go.
const (
	flagSummaAFromWest = 6 // A panel arrived from the west neighbour
	flagSummaAFromEast = 7
	flagSummaBFromN    = 8 // B panel arrived from the north neighbour
	flagSummaBFromS    = 9
	flagSummaCDN       = 10 // north neighbour's computed-steps counter
	flagSummaCDS       = 11
	flagSummaCDW       = 12
	flagSummaCDE       = 13
)

// summa is the per-core state of a SUMMA multiplication. The double-
// buffer scratchpad plan is reused: a0/b0 hold the core's own blocks,
// a1/b1 the panel workspace.
type summa struct {
	blockCore
	step uint32
}

// post stores a flag value into workgroup position (row, col)'s slot.
func (s *summa) post(row, col, slot int, v uint32) {
	s.postAt(s.w.OriginRow+row, s.w.OriginCol+col, slot, v)
}

// send DMA-copies sz bytes to workgroup position (row, col).
func (s *summa) send(ch dma.Chan, row, col int, src, dst mem.Addr, sz int) {
	s.sendAt(ch, s.w.OriginRow+row, s.w.OriginCol+col, src, dst, sz)
}

// awaitCD waits until the neighbour at (row, col) has computed at least
// `need` steps, so its panel workspace is free for overwriting. Unlike
// the old Cannon schemeDouble gate (which raced: its counter was
// posted before the round's forwards), this compute-done gate is
// send-safe as-is: postCD runs after the step's multiplyAdd, and a
// SUMMA step's forwards out of the panel workspace all happen *before*
// that step's compute, so a step-N counter proves the workspace's
// sends drained.
func (s *summa) awaitCD(row, col int, need uint32) {
	if need == 0 {
		return
	}
	var slot int
	switch {
	case row < s.gr:
		slot = flagSummaCDN
	case row > s.gr:
		slot = flagSummaCDS
	case col < s.gc:
		slot = flagSummaCDW
	default:
		slot = flagSummaCDE
	}
	s.await(slot, need)
}

// broadcastA distributes step l's A panel along this core's row via a
// store-and-forward pipeline away from the owner column l. It returns
// the base of the panel for this core's compute.
func (s *summa) broadcastA(l int) mem.Addr {
	g := s.w.Cols
	sz := 4 * s.m * s.n
	t0 := s.c.Now()
	defer func() { s.transfer += s.c.Now() - t0 }()
	switch {
	case s.gc == l: // owner: seed both directions
		if l > 0 {
			s.awaitCD(s.gr, s.gc-1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc-1, s.plan.a0, s.plan.a1, sz)
			s.post(s.gr, s.gc-1, flagSummaAFromEast, s.step)
		}
		if l < g-1 {
			s.awaitCD(s.gr, s.gc+1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc+1, s.plan.a0, s.plan.a1, sz)
			s.post(s.gr, s.gc+1, flagSummaAFromWest, s.step)
		}
		return s.plan.a0
	case s.gc > l: // receive from the west, forward east
		s.await(flagSummaAFromWest, s.step)
		if s.gc+1 < g {
			s.awaitCD(s.gr, s.gc+1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc+1, s.plan.a1, s.plan.a1, sz)
			s.post(s.gr, s.gc+1, flagSummaAFromWest, s.step)
		}
		return s.plan.a1
	default: // receive from the east, forward west
		s.await(flagSummaAFromEast, s.step)
		if s.gc-1 >= 0 {
			s.awaitCD(s.gr, s.gc-1, s.step-1)
			s.send(dma.DMA0, s.gr, s.gc-1, s.plan.a1, s.plan.a1, sz)
			s.post(s.gr, s.gc-1, flagSummaAFromEast, s.step)
		}
		return s.plan.a1
	}
}

// broadcastB distributes step l's B panel along this core's column.
func (s *summa) broadcastB(l int) mem.Addr {
	g := s.w.Rows
	sz := 4 * s.n * s.k
	t0 := s.c.Now()
	defer func() { s.transfer += s.c.Now() - t0 }()
	switch {
	case s.gr == l:
		if l > 0 {
			s.awaitCD(s.gr-1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr-1, s.gc, s.plan.b0, s.plan.b1, sz)
			s.post(s.gr-1, s.gc, flagSummaBFromS, s.step)
		}
		if l < g-1 {
			s.awaitCD(s.gr+1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr+1, s.gc, s.plan.b0, s.plan.b1, sz)
			s.post(s.gr+1, s.gc, flagSummaBFromN, s.step)
		}
		return s.plan.b0
	case s.gr > l:
		s.await(flagSummaBFromN, s.step)
		if s.gr+1 < g {
			s.awaitCD(s.gr+1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr+1, s.gc, s.plan.b1, s.plan.b1, sz)
			s.post(s.gr+1, s.gc, flagSummaBFromN, s.step)
		}
		return s.plan.b1
	default:
		s.await(flagSummaBFromS, s.step)
		if s.gr-1 >= 0 {
			s.awaitCD(s.gr-1, s.gc, s.step-1)
			s.send(dma.DMA1, s.gr-1, s.gc, s.plan.b1, s.plan.b1, sz)
			s.post(s.gr-1, s.gc, flagSummaBFromS, s.step)
		}
		return s.plan.b1
	}
}

// postCD tells every neighbour this core finished another step.
func (s *summa) postCD() {
	g := s.w.Rows
	if s.gr > 0 {
		s.post(s.gr-1, s.gc, flagSummaCDS, s.step)
	}
	if s.gr < g-1 {
		s.post(s.gr+1, s.gc, flagSummaCDN, s.step)
	}
	if s.gc > 0 {
		s.post(s.gr, s.gc-1, flagSummaCDE, s.step)
	}
	if s.gc < s.w.Cols-1 {
		s.post(s.gr, s.gc+1, flagSummaCDW, s.step)
	}
}

// multiply runs the g SUMMA steps.
func (s *summa) multiply() {
	g := s.w.Rows
	for l := 0; l < g; l++ {
		s.step++
		var aBase, bBase mem.Addr
		if g == 1 {
			aBase, bBase = s.plan.a0, s.plan.b0
		} else {
			aBase = s.broadcastA(l)
			bBase = s.broadcastB(l)
		}
		s.multiplyAdd(aBase, bBase)
		if g > 1 {
			s.postCD()
		}
	}
}
