package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateWaiting // in the event heap with a scheduled resume
	stateBlocked // waiting on a Cond, not in the heap
	stateDone
)

// Proc is a simulated process. Its function runs as an iter.Pull
// coroutine: it still owns a goroutine, but the engine's dispatch loop
// switches to it and back directly, with no hand-off through the Go
// scheduler. The engine runs only one Proc at a time, so Procs may
// freely touch simulation state without synchronization.
type Proc struct {
	eng       *Engine
	id        int
	name      string
	now       Time
	fn        func(*Proc)
	next      func() (struct{}, bool) // resumes the body until it parks or returns
	yield     func(struct{}) bool     // parks the body; called only from inside it
	state     procState
	blockedOn *Cond // the Cond being waited on (deadlock diagnostics)
	done      *Cond // completion condition
	finished  bool  // the function returned
}

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the Proc's spawn index within its engine.
func (p *Proc) ID() int { return p.id }

// Now returns the Proc's current virtual time.
func (p *Proc) Now() Time { return p.now }

// start creates the Proc's coroutine and runs its body until it first
// parks or returns. Engine-side only.
func (p *Proc) start() {
	p.state = stateRunning
	p.now = p.eng.now
	p.next, _ = iter.Pull(p.body)
	p.next()
}

// body is the coroutine: it runs fn, turns a panic into the engine's
// error and announces completion.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			p.eng.fail(fmt.Errorf("sim: proc %q panicked at t=%v: %v\n%s",
				p.name, p.now, r, debug.Stack()))
		}
		p.state = stateDone
		p.finished = true
		p.done.Broadcast()
	}()
	p.fn(p)
}

// mustBeRunning panics unless p's own body is the code the engine is
// running: parking p from a callback or from another proc's body would
// hand control to a coroutine that is not the one executing.
func (p *Proc) mustBeRunning() {
	if p.eng.curProc != p {
		panic(fmt.Sprintf("sim: proc %q waited from outside its own body", p.name))
	}
}

// Wait advances the Proc's clock by d, letting other events at earlier
// times run first. Wait(0) yields the processor while keeping time fixed
// (events already queued at the same time run before the Proc resumes).
func (p *Proc) Wait(d Time) { p.WaitUntil(p.now + d) }

// WaitCycles advances the Proc's clock by n core clock cycles.
func (p *Proc) WaitCycles(n uint64) { p.Wait(Cycles(n)) }

// WaitUntil advances the Proc's clock to absolute time t (no-op if t is
// not in the future, other than yielding).
func (p *Proc) WaitUntil(t Time) {
	p.mustBeRunning()
	if t < p.now {
		t = p.now
	}
	p.state = stateWaiting
	p.eng.schedule(event{t: t, kind: evResume, proc: p})
	p.yield(struct{}{})
}

// Block parks the Proc with no scheduled wake-up; something must later call
// unblock (via Cond signalling). c's name appears in deadlock reports.
func (p *Proc) block(c *Cond) {
	p.mustBeRunning()
	p.state = stateBlocked
	p.blockedOn = c
	p.eng.blocked++
	p.yield(struct{}{})
}

// unblock schedules the Proc to resume at time t. Engine/Cond-side only.
func (p *Proc) unblock(t Time) {
	if p.state != stateBlocked {
		return
	}
	if t < p.eng.now {
		t = p.eng.now
	}
	p.state = stateWaiting
	p.blockedOn = nil
	p.eng.blocked--
	p.eng.schedule(event{t: t, kind: evResume, proc: p})
}

// Done returns a Cond broadcast when the Proc's function returns. Other
// Procs can WaitCond on it to join.
func (p *Proc) Done() *Cond { return p.done }

// Finished reports whether the Proc's function has returned.
func (p *Proc) Finished() bool { return p.finished }

// Join blocks p until other has finished.
func (p *Proc) Join(other *Proc) {
	for !other.Finished() {
		p.WaitCond(other.Done())
	}
}
