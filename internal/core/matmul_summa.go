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

// line is one broadcast direction of SUMMA: A panels travel along the
// core's group row, B panels along its group column. A position on the
// line is a group column or row; lo and hi name the neighbours at the
// lower and higher position.
type line struct {
	ch            dma.Chan
	pos, n        int // this core's position, and the line's length
	first, stride int // chip core index of position 0, and per position
	own, panel    mem.Addr
	sz            int
	// The flag slots: a panel arrived from lo or from hi, and the lo
	// or hi neighbour's computed-steps counter.
	fromLo, fromHi, cdLo, cdHi int
}

// core returns the chip core index of position p.
func (ln *line) core(p int) int { return ln.first + p*ln.stride }

// lines returns the core's A line (its group row) and B line (its
// group column).
func (s *summa) lines() (a, b line) {
	a = line{ch: dma.DMA0, pos: s.gc, n: s.w.Cols, first: s.w.CoreIndex(s.gr, 0), stride: 1,
		own: s.plan.a0, panel: s.plan.a1, sz: 4 * s.m * s.n,
		fromLo: flagSummaAFromWest, fromHi: flagSummaAFromEast, cdLo: flagSummaCDW, cdHi: flagSummaCDE}
	b = line{ch: dma.DMA1, pos: s.gr, n: s.w.Rows, first: s.w.CoreIndex(0, s.gc), stride: s.c.Chip().Map().Cols,
		own: s.plan.b0, panel: s.plan.b1, sz: 4 * s.n * s.k,
		fromLo: flagSummaBFromN, fromHi: flagSummaBFromS, cdLo: flagSummaCDN, cdHi: flagSummaCDS}
	return a, b
}

// broadcast distributes step l's panel along ln via a store-and-forward
// pipeline away from the owner at position l. It returns the base of
// the panel for this core's compute.
func (s *summa) broadcast(ln *line, l int) mem.Addr {
	t0 := s.c.Now()
	defer func() { s.transfer += s.c.Now() - t0 }()
	switch {
	case ln.pos == l: // owner: seed both directions
		if l > 0 {
			s.forward(ln, ln.pos-1, ln.own)
		}
		if l < ln.n-1 {
			s.forward(ln, ln.pos+1, ln.own)
		}
		return ln.own
	case ln.pos > l: // receive from lo, forward to hi
		s.flags.Await(ln.fromLo, s.step)
		if ln.pos+1 < ln.n {
			s.forward(ln, ln.pos+1, ln.panel)
		}
	default: // receive from hi, forward to lo
		s.flags.Await(ln.fromHi, s.step)
		if ln.pos > 0 {
			s.forward(ln, ln.pos-1, ln.panel)
		}
	}
	return ln.panel
}

// forward sends the panel at src into the panel workspace of position
// to, a neighbour, and posts its arrival there. It first waits until
// that neighbour has computed the previous step, so its workspace is
// free for overwriting. Unlike the old Cannon schemeDouble gate (which
// raced: its counter was posted before the round's forwards), this
// compute-done gate is send-safe as-is: the counter is posted after the
// step's multiplyAdd, and a SUMMA step's forwards out of the panel
// workspace all happen *before* that step's compute, so a step-N
// counter proves the workspace's sends drained.
func (s *summa) forward(ln *line, to int, src mem.Addr) {
	cd, arrived := ln.cdHi, ln.fromLo
	if to < ln.pos {
		cd, arrived = ln.cdLo, ln.fromHi
	}
	if s.step > 1 {
		s.flags.Await(cd, s.step-1)
	}
	s.send(ln.ch, ln.core(to), src, ln.panel, ln.sz)
	s.flags.Post(ln.core(to), arrived, s.step)
}

// multiply runs the g SUMMA steps.
func (s *summa) multiply() {
	g := s.w.Rows
	a, b := s.lines()
	for l := 0; l < g; l++ {
		s.step++
		if g == 1 {
			s.multiplyAdd(s.plan.a0, s.plan.b0)
			continue
		}
		aBase := s.broadcast(&a, l)
		bBase := s.broadcast(&b, l)
		s.multiplyAdd(aBase, bBase)
		// Tell every neighbour this core finished another step: north,
		// south, west, east.
		for _, ln := range [...]*line{&b, &a} {
			if ln.pos > 0 {
				s.flags.Post(ln.core(ln.pos-1), ln.cdHi, s.step)
			}
			if ln.pos < ln.n-1 {
				s.flags.Post(ln.core(ln.pos+1), ln.cdLo, s.step)
			}
		}
	}
}
