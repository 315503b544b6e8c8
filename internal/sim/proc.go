package sim

import (
	"fmt"
	"runtime/debug"
	"strconv"
)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateWaiting // in the event heap with a scheduled resume
	stateBlocked // waiting on a Cond, not in the heap
	stateDone
)

// Proc is a simulated process. Its function runs on a coroutine that
// the engine keeps in a pool: the engine's dispatch loop switches to it
// and back directly, with no hand-off through the Go scheduler, and
// hands the coroutine to a later Proc once this one's function returns.
// The engine runs only one Proc at a time, so Procs may freely touch
// simulation state without synchronization.
//
// A Proc still parked when its engine's run fails (a deadlock or a
// panic), or when the engine is Reset, is unwound: its function
// returns through its deferred calls without simulating anything
// more, and its coroutine goes back to the pool.
type Proc struct {
	eng *Engine
	co  *coro // the coroutine running fn; nil before start and after fn ends
	fn  func(*Proc)
	// name, with row >= 0, is the prefix of the name name(row,col),
	// formatted only when diagnostics ask for it.
	name      string
	row, col  int
	id        int
	now       Time
	blockedOn *Cond // the Cond being waited on (deadlock diagnostics)
	done      Cond  // completion condition
	state     procState
	finished  bool // fn returned or was unwound
	unwinding bool // a teardown is unwinding fn
}

// unwind is the private panic value that unwinds a parked proc.
type unwind struct{}

// PanicError is a run's error when a proc panicked. Its message is one
// line; the panicking goroutine's stack is kept in Stack for a debug
// view.
type PanicError struct {
	Proc  string // the proc's name
	At    Time   // the proc's virtual time
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() at the recover
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked at t=%v: %v", e.Proc, e.At, e.Value)
}

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string {
	if p.row < 0 {
		return p.name
	}
	return p.name + "(" + strconv.Itoa(p.row) + "," + strconv.Itoa(p.col) + ")"
}

// ID returns the Proc's spawn index within its engine.
func (p *Proc) ID() int { return p.id }

// Now returns the Proc's current virtual time.
func (p *Proc) Now() Time { return p.now }

// start runs the Proc's body on a pooled coroutine until it first
// parks or returns. Engine-side only.
func (p *Proc) start() {
	p.state = stateRunning
	p.now = p.eng.now
	p.eng.pool.run(p)
}

// body runs fn on the Proc's coroutine.
func (p *Proc) body() {
	defer p.finish()
	p.fn(p)
}

// finish ends the body: it turns a panic into the engine's error, drops
// the unwind signal and announces completion.
func (p *Proc) finish() {
	if r := recover(); r != nil {
		if _, ok := r.(unwind); !ok {
			p.eng.fail(&PanicError{Proc: p.Name(), At: p.now, Value: r, Stack: debug.Stack()})
		}
	}
	p.state = stateDone
	p.finished = true
	if !p.unwinding {
		p.done.Broadcast()
	}
}

// mustBeRunning panics unless p's own body is the code the engine is
// running: parking p from a callback or from another proc's body would
// hand control to a coroutine that is not the one executing. While a
// teardown unwinds p, a park (from a deferred call) unwinds again
// instead.
func (p *Proc) mustBeRunning() {
	if p.unwinding {
		panic(unwind{})
	}
	if p.eng.curProc != p {
		panic(fmt.Sprintf("sim: proc %q waited from outside its own body", p.Name()))
	}
}

// park switches back to the engine until p is resumed, and unwinds p
// if the resume came from a teardown.
func (p *Proc) park() {
	p.co.yield(struct{}{})
	if p.unwinding {
		panic(unwind{})
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
	p.park()
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
func (p *Proc) Done() *Cond { return &p.done }

// Finished reports whether the Proc's function has returned, or was
// unwound by a failed run or a Reset.
func (p *Proc) Finished() bool { return p.finished }

// Join blocks p until other has finished.
func (p *Proc) Join(other *Proc) {
	for !other.Finished() {
		p.WaitCond(other.Done())
	}
}
