package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
)

// eventKind discriminates heap entries.
type eventKind uint8

const (
	evResume eventKind = iota // wake a blocked Proc
	evStart                   // start a freshly spawned Proc
	evCall                    // run a callback inline in the engine
)

// event is one scheduled occurrence, keyed by (t, seq): its virtual
// time, then the engine's scheduling sequence number, so events at the
// same time run in creation order. The heap moves events by value, so
// an event holds no pointer: the proc or callback it runs waits in the
// engine's payload table at slot. A sift then moves 24 plain bytes,
// which the garbage collector's write barrier never slows while it
// marks.
type event struct {
	t    Time
	seq  uint64
	slot uint32
	kind eventKind
}

// payload is what a scheduled event runs: the proc it starts or
// resumes, or the callback it calls.
type payload struct {
	proc *Proc
	fn   func()
}

// key is the deterministic total order over events: virtual time first,
// then creation order. Both parts are a pure function of the simulated
// program, so the same board runs the same schedule on every run.
type key struct {
	t   Time
	seq uint64
}

func (k key) less(o key) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	return k.seq < o.seq
}

func (ev *event) key() key { return key{t: ev.t, seq: ev.seq} }

// eventHeap is a binary min-heap of events by key. It stores values, so
// scheduling allocates nothing once the backing array has grown. Both
// sifts move a hole instead of swapping, one event copy per level.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	q := *h
	k := ev.key()
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !k.less(q[up].key()) {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = ev
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	k := last.key()
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].key().less(q[c].key()) {
			c = r
		}
		if !q[c].key().less(k) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Engine is a deterministic discrete-event simulator: one event heap,
// executed in (time, seq) order on the calling goroutine. A whole
// board, however many chips it has, runs on one engine. Host
// parallelism lives one level up: Runner executes whole jobs
// concurrently, one engine each.
//
// Procs run as coroutines, and the engine executes at most one of them
// at a time, always in key order, so simulations are fully
// reproducible. The engine owns its coroutines: a proc's coroutine
// returns to the engine's pool when the proc ends, a failed run or a
// Reset unwinds every proc still parked, and the idle coroutines stop
// once the engine is unreachable, so no goroutine outlives its engine.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	heap eventHeap
	// slots holds the payload of every pending event, at the event's
	// slot; freeSlots lists the unused slots.
	slots     []payload
	freeSlots []uint32
	now       Time
	seq       uint64
	procs     []*Proc
	freeProcs []*Proc // records of procs a Reset retired, for spawn to reuse
	blocked   int     // procs waiting on a Cond (not in the heap)
	pool      *coroPool

	// curProc is the proc of the event being dispatched (nil for
	// callback events); it backs Proc.mustBeRunning.
	curProc *Proc

	err     error // the first failure (a proc panic or a deadlock); ends the run
	stopped bool  // Stop was called: blocked procs are not a deadlock
	running bool  // inside RunUntil

	// Scheduler counters, snapshotted by Stats. Each is a single
	// increment on a path that already does real work, so they are
	// unconditionally on; read between runs.
	nEvents  uint64
	heapPeak int
}

// NewEngine returns an empty engine at virtual time zero. Its idle
// coroutines stop once the engine becomes unreachable.
func NewEngine() *Engine {
	e := &Engine{pool: new(coroPool)}
	runtime.AddCleanup(e, (*coroPool).close, e.pool)
	return e
}

// AddShards does nothing: every engine is one event heap.
//
// Deprecated: the shard partition was removed; the benchmark catch-up
// deletes this shim.
func (e *Engine) AddShards(int) {}

// Shard returns e.
//
// Deprecated: the shard partition was removed; the benchmark catch-up
// deletes this shim.
func (e *Engine) Shard(int) *Engine { return e }

// Send schedules fn on to at time t; it is to.At(t, fn).
//
// Deprecated: the shard partition was removed; the benchmark catch-up
// deletes this shim.
func (e *Engine) Send(to *Engine, t Time, fn func()) { to.At(t, fn) }

// Now returns the current virtual time: the time of the event being
// processed, or after a run the time of the last one.
func (e *Engine) Now() Time { return e.now }

// schedule enqueues an event of the given kind at time t, running
// proc or fn, stamped with the next sequence number.
func (e *Engine) schedule(t Time, kind eventKind, proc *Proc, fn func()) {
	var slot uint32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		slot = uint32(len(e.slots))
		e.slots = append(e.slots, payload{})
	}
	e.slots[slot] = payload{proc: proc, fn: fn}
	e.heap.push(event{t: t, seq: e.seq, slot: slot, kind: kind})
	e.seq++
	if n := len(e.heap); n > e.heapPeak {
		e.heapPeak = n
	}
}

// At schedules fn to run inline at absolute time t (or at the current
// time if t is in the past). Useful for timers and completions.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, evCall, nil, fn)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run or
// from inside a running Proc or callback. The returned *Proc is valid
// until the engine's next Reset, which recycles its record for a later
// spawn.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit absolute start time.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return e.spawn(t, name, -1, 0, fn)
}

// SpawnIdx is Spawn for a process named prefix(row,col), such as one
// kernel of a workgroup. The name is formatted only when diagnostics
// ask for it, so launching a large group stays allocation-lean.
func (e *Engine) SpawnIdx(prefix string, row, col int, fn func(p *Proc)) *Proc {
	if row < 0 || col < 0 {
		panic("sim: SpawnIdx with negative index")
	}
	return e.spawn(e.now, prefix, row, col, fn)
}

func (e *Engine) spawn(t Time, name string, row, col int, fn func(p *Proc)) *Proc {
	if t < e.now {
		t = e.now
	}
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs = e.freeProcs[:n-1]
	} else {
		p = new(Proc)
	}
	// The whole record is rewritten; only the done condition's waiter
	// slice keeps its capacity.
	*p = Proc{
		eng:   e,
		fn:    fn,
		name:  name,
		row:   row,
		col:   col,
		id:    len(e.procs),
		state: stateNew,
		done:  Cond{eng: e, idx: -1, of: p, waiters: p.done.waiters[:0]},
	}
	e.procs = append(e.procs, p)
	e.schedule(t, evStart, p, nil)
	return p
}

// Run processes events until the queue drains. It returns an error if
// a Proc panicked (a *PanicError) or if runnable work remains blocked
// forever (deadlock: procs waiting on conditions nobody will signal).
// A failed run unwinds every proc still parked once its error is
// built, so the engine holds no parked coroutine; it keeps returning
// the same error until Reset.
func (e *Engine) Run() error {
	return e.RunUntil(^Time(0))
}

// RunUntil is Run but stops (without error) once virtual time would
// exceed limit. Events at exactly limit are still processed. A panic
// out of a callback unwinds the parked procs too before it propagates.
func (e *Engine) RunUntil(limit Time) error {
	e.running = true
	ok := false
	defer func() {
		if !ok {
			e.teardown()
		}
		e.running = false
	}()
	for e.err == nil {
		if len(e.heap) == 0 {
			if e.blocked == 0 || e.stopped {
				ok = true
				return nil
			}
			e.fail(e.deadlockError())
			break
		}
		if e.heap[0].t > limit {
			ok = true
			return nil
		}
		e.dispatch(e.heap.pop())
	}
	return e.err
}

// dispatch runs one event, freeing its payload slot first. A proc
// event switches to the proc's coroutine, which runs until it parks
// again.
func (e *Engine) dispatch(ev event) {
	pl := e.slots[ev.slot]
	e.slots[ev.slot] = payload{}
	e.freeSlots = append(e.freeSlots, ev.slot)
	e.nEvents++
	e.now = ev.t
	e.curProc = pl.proc
	switch ev.kind {
	case evCall:
		pl.fn()
	case evStart:
		pl.proc.start()
	case evResume:
		p := pl.proc
		if p.state == stateDone {
			break // stale wake-up after proc ended
		}
		p.state = stateRunning
		p.now = ev.t
		p.co.next()
	}
	e.curProc = nil
}

// Stop suppresses the deadlock check when the run winds down: after
// Stop, Procs still blocked on conditions when the queue drains do not
// count as a deadlock. (Used with RunUntil for fixed-window
// experiments.)
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state - virtual time zero,
// no events, no procs, fresh sequence numbers - so the structures built
// around it can be recycled instead of reconstructed. Procs that a
// Stopped or RunUntil-limited run left parked are unwound first, their
// coroutines going back to the pool, and pending events are dropped.
// The run's Proc records go on a free list, dropping their functions,
// and later spawns reuse them: every *Proc the engine handed out is
// invalid once Reset returns. Reset fails only when called from inside
// a run.
func (e *Engine) Reset() error {
	if e.running {
		return errors.New("sim: Reset during a run")
	}
	e.teardown()
	for _, p := range e.procs {
		p.fn = nil
	}
	e.freeProcs = append(e.freeProcs, e.procs...)
	clear(e.procs)
	e.procs = e.procs[:0]
	e.now, e.seq = 0, 0
	e.nEvents, e.heapPeak = 0, 0
	e.err = nil
	e.stopped = false
	return nil
}

// teardown unwinds every parked proc and drops the pending events. A
// parked proc's park returns into the unwind panic, which runs its
// deferred calls and which its body's recover drops, and its coroutine
// goes back to the pool; a proc that never started just ends. Nothing
// an unwinding proc schedules survives, and the counters keep the
// failed run's values.
func (e *Engine) teardown() {
	peak, seq := e.heapPeak, e.seq
	for i := 0; i < len(e.procs); i++ { // unwinding may spawn
		p := e.procs[i]
		switch p.state {
		case stateNew:
			p.state, p.finished = stateDone, true
		case stateWaiting, stateBlocked:
			if c := p.blockedOn; c != nil {
				c.drop() // every waiter is parked here too
				p.blockedOn = nil
			}
			p.unwinding = true
			e.curProc = p
			p.co.next()
		}
	}
	e.curProc = nil
	e.heap = e.heap[:0]
	clear(e.slots)
	e.slots, e.freeSlots = e.slots[:0], e.freeSlots[:0]
	e.blocked = 0
	e.heapPeak, e.seq = peak, seq
}

// fail records the first error, which ends the run.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// deadlockError reports every blocked proc by name and the condition
// it waits on, sorted.
func (e *Engine) deadlockError() error {
	var names []string
	for _, p := range e.procs {
		if p.state == stateBlocked {
			names = append(names, p.Name()+"@"+p.blockedOn.Name())
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v: %d proc(s) blocked forever: %v",
		e.now, e.blocked, names)
}
