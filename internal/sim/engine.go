package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// eventKind discriminates heap entries.
type eventKind uint8

const (
	evResume eventKind = iota // wake a blocked Proc
	evStart                   // start a freshly spawned Proc
	evCall                    // run a callback inline in the engine
)

// event is one scheduled occurrence, keyed by (t, tag, sid, seq) - the
// arbitration tag plus the sender shard's id and sequence number, a
// schedule-independent total order (see key). The two one-byte fields
// sit together at the end so an event packs into 48 bytes: the heap
// moves events by value.
type event struct {
	t    Time
	tag  int32
	sid  int32
	seq  uint64
	proc *Proc
	fn   func()
	kind eventKind
	// mayBook marks an event that may book mesh link occupancy when it
	// runs (a DMA chain continuation). The parallel scheduler holds such
	// an event until its key is below the shard's booking floor (see
	// Shard.AwaitBookingWindow for why bookings need one).
	mayBook bool
}

func (ev *event) key() key { return key{t: ev.t, tag: ev.tag, sid: ev.sid, seq: ev.seq} }

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
	q[n] = event{} // drop the proc and closure references
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

// Engine is a deterministic discrete-event simulator, partitioned into
// one or more shards (see Shard). A single-shard engine behaves exactly
// like the classic sequential engine; a multi-shard engine executes the
// same canonical event order - the total order over (time, shard, seq)
// keys - either sequentially (workers = 1, a plain merge of the per-
// shard heaps) or in parallel (workers > 1, a conservative barrier-
// window scheduler that lets chip shards run ahead of each other up to
// the chip-to-chip eLink lookahead). The metrics of a run are
// bit-identical for every worker count, because the executed schedule
// is the same canonical order in all modes.
//
// Procs run as coroutines, and each shard executes at most one of them
// at a time, and always in key order, so simulations are fully
// reproducible. The zero value is not usable; create engines with
// NewEngine.
type Engine struct {
	shards    []*Shard
	workers   int
	lookahead Time

	// midRun is set for the duration of Run (written single-threaded
	// before workers start and after they join, so reads during the run
	// see a stable true).
	midRun   bool
	parallel bool // this Run uses the parallel scheduler (Send uses inboxes)

	err     error
	failed  atomic.Bool // mirrors err != nil, checkable without a lock
	stopped atomic.Bool

	// Parallel-scheduler counters (see EngineStats) and the optional
	// per-round observer. All touched only by the coordinator goroutine
	// strictly between round barriers.
	rounds             uint64
	phaseANS, phaseBNS int64
	roundHook          func(round uint64, start, end Time)
}

// NewEngine returns an empty single-shard engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{workers: 1}
	e.shards = []*Shard{{eng: e, id: 0}}
	return e
}

// AddShards grows the engine by n shards (one per chip of a multi-chip
// board; shard 0 remains the sys shard). It must be called while the
// engine is empty - before any event is scheduled or proc spawned - so
// every event ever created carries a stable shard id.
func (e *Engine) AddShards(n int) {
	if e.midRun {
		panic("sim: AddShards during Run")
	}
	for _, s := range e.shards {
		if len(s.heap) != 0 || len(s.procs) != 0 || s.seq != 0 {
			panic("sim: AddShards on an engine that already scheduled events")
		}
	}
	for i := 0; i < n; i++ {
		e.shards = append(e.shards, &Shard{eng: e, id: int32(len(e.shards))})
	}
}

// NumShards returns the number of shards (1 = classic sequential
// engine).
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard returns shard i. Shard 0 always exists.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Sys returns shard 0, the shard owning board-global state (host,
// eLink arbiter, DRAM) - and, on a single-chip board, everything.
func (e *Engine) Sys() *Shard { return e.shards[0] }

// SetLookahead sets the minimum virtual-time latency of any chip-to-
// chip interaction (the eLink crossing latency plus the first byte's
// serialization). The parallel scheduler lets chip shards run that far
// beyond each other's frontiers. Zero (the default) degrades to
// key-precise windows - still correct, just less concurrent.
func (e *Engine) SetLookahead(d Time) { e.lookahead = d }

// Lookahead returns the configured chip-to-chip lookahead window.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetWorkers sets how many host goroutines execute shards during Run:
// 1 (the default) is fully sequential; higher counts run shards
// concurrently under the conservative window scheduler. The executed
// event schedule - and therefore every metric - is identical for any
// value; workers only changes wall-clock time. Values are clamped to
// [1, NumShards].
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(e.shards) {
		n = len(e.shards)
	}
	e.workers = n
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Now returns the current virtual time: the time of the event being
// processed during a sequential run, or the maximum shard time (the
// board's completion time) after a run. During a parallel run it is
// only meaningful from within shard code, which should use Shard.Now
// or Proc.Now instead.
func (e *Engine) Now() Time {
	if len(e.shards) == 1 {
		return e.shards[0].now
	}
	var t Time
	for _, s := range e.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// At schedules fn on shard 0 at absolute time t (or at the current time
// if t is in the past). Useful for timers and completions.
func (e *Engine) At(t Time, fn func()) { e.shards[0].At(t, fn) }

// After schedules fn on shard 0, d after shard 0's current time.
func (e *Engine) After(d Time, fn func()) { e.shards[0].After(d, fn) }

// Spawn creates a process named name running fn on shard 0 and
// schedules it to start at the current virtual time. It may be called
// before Run or from inside a running Proc or callback.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.shards[0].Spawn(name, fn)
}

// SpawnAt is Spawn with an explicit absolute start time.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return e.shards[0].SpawnAt(t, name, fn)
}

// Run processes events until every shard's queue drains. It returns an
// error if a Proc panicked or if runnable work remains blocked forever
// (deadlock: procs waiting on conditions nobody will signal).
func (e *Engine) Run() error {
	return e.RunUntil(^Time(0))
}

// RunUntil is Run but stops (without error) once virtual time would
// exceed limit. Events at exactly limit are still processed.
func (e *Engine) RunUntil(limit Time) error {
	e.midRun = true
	defer func() { e.midRun = false }()
	if e.workers > 1 && len(e.shards) > 1 {
		return e.runParallel(limit)
	}
	return e.runSequential(limit)
}

// runSequential merges the shard heaps in global key order - the
// canonical schedule the parallel mode reproduces. A single-shard
// engine is the one-heap case of the same merge.
func (e *Engine) runSequential(limit Time) error {
	for e.err == nil {
		var next *Shard
		var best key
		for _, s := range e.shards {
			if len(s.heap) == 0 {
				continue
			}
			if k := s.heap[0].key(); next == nil || k.less(best) {
				next, best = s, k
			}
		}
		if next == nil {
			if e.totalBlocked() > 0 && !e.stopped.Load() {
				return e.deadlockError()
			}
			return e.err
		}
		if best.t > limit {
			return e.err
		}
		next.dispatch(next.heap.pop())
	}
	return e.err
}

// runParallel executes shards on several workers in barrier-delimited
// rounds. Each round: (A) every shard drains its inbox and publishes
// its frontier key; the coordinator derives per-shard execution bounds;
// (B) every shard executes events strictly below its bound. Bounds are
// conservative: a chip shard may run up to the engine lookahead past
// other chips' frontiers but never past the sys shard's frontier (host,
// eLink and DRAM interactions carry no lookahead), and vice versa - so
// an event is executed only when no other shard can still post an
// earlier-keyed event to it, which makes the executed schedule exactly
// the canonical key order of runSequential.
func (e *Engine) runParallel(limit Time) error {
	nw := e.workers
	e.parallel = true
	defer func() { e.parallel = false }()

	// Workers 1..nw-1 each own the shards congruent to their index;
	// the coordinator (this goroutine) owns the rest and runs the
	// global decisions between phases.
	type ctl struct {
		start chan int
		done  chan struct{}
	}
	ctls := make([]ctl, nw)
	for w := 1; w < nw; w++ {
		ctls[w] = ctl{start: make(chan int, 1), done: make(chan struct{}, 1)}
		go func(w int, c ctl) {
			for ph := range c.start {
				for i := w; i < len(e.shards); i += nw {
					if ph == 0 {
						e.shards[i].phaseA()
					} else {
						e.shards[i].phaseB(limit)
					}
				}
				c.done <- struct{}{}
			}
		}(w, ctls[w])
	}
	defer func() {
		for w := 1; w < nw; w++ {
			close(ctls[w].start)
		}
	}()

	phase := func(ph int) {
		for w := 1; w < nw; w++ {
			ctls[w].start <- ph
		}
		for i := 0; i < len(e.shards); i += nw {
			if ph == 0 {
				e.shards[i].phaseA()
			} else {
				e.shards[i].phaseB(limit)
			}
		}
		for w := 1; w < nw; w++ {
			<-ctls[w].done
		}
	}

	for {
		t0 := time.Now()
		phase(0)
		e.phaseANS += time.Since(t0).Nanoseconds()
		if e.failed.Load() {
			return e.err
		}
		empty := true
		minT := ^Time(0)
		for _, s := range e.shards {
			if s.frontOK {
				empty = false
				if s.frontKey.t < minT {
					minT = s.frontKey.t
				}
			}
		}
		if empty {
			if e.totalBlocked() > 0 && !e.stopped.Load() {
				return e.deadlockError()
			}
			return e.err
		}
		if minT > limit {
			return e.err
		}
		e.computeBounds()
		t0 = time.Now()
		phase(1)
		e.phaseBNS += time.Since(t0).Nanoseconds()
		round := e.rounds
		e.rounds++
		if e.failed.Load() {
			return e.err
		}
		if e.roundHook != nil {
			// The round's span: from the minimum frontier it started at
			// to the highest shard time it reached. At least the
			// minimum-keyed event always executes (its bound derives
			// from strictly greater frontiers), so end >= start.
			end := Time(0)
			for _, s := range e.shards {
				if s.now > end {
					end = s.now
				}
			}
			e.roundHook(round, minT, end)
		}
	}
}

// computeBounds derives each shard's execution window for one round
// from the frontiers published in phase A: the bound (how far events may
// execute) and the booking floor (how far order-sensitive link bookings
// may go - always the key-precise minimum of the other chip frontiers,
// never lifted, because a cross-chip walk books links at its *issue*
// key with zero cross-shard latency; see Shard.AwaitBookingWindow).
func (e *Engine) computeBounds() {
	L := e.lookahead
	for _, a := range e.shards {
		bound := infKey
		safe := infKey
		for _, o := range e.shards {
			if o == a || !o.frontOK {
				continue
			}
			f := o.frontKey
			if a.id != 0 && o.id != 0 {
				// Another chip's unlifted frontier is also the booking
				// floor: any cross-chip walk that chip may still issue
				// will carry a key at or above it.
				if f.less(safe) {
					safe = f
				}
				if L > 0 {
					// Chip-to-chip interactions carry at least the eLink
					// crossing lookahead; lift the frontier by L. The
					// lifted key's sid of -1 makes the window exclusive of
					// events at exactly t+L.
					if f.t > ^Time(0)-L {
						continue // effectively infinite
					}
					f = key{t: f.t + L, tag: -1 << 30, sid: -1}
				}
			}
			if f.less(bound) {
				bound = f
			}
		}
		a.bound = bound
		a.safeKey = safe
	}
}

func (e *Engine) totalBlocked() int {
	n := 0
	for _, s := range e.shards {
		n += s.blocked
	}
	return n
}

// Stop suppresses the deadlock check when the run winds down: after
// Stop, Procs still blocked on conditions when the queues drain do not
// count as a deadlock. (Used with RunUntil for fixed-window
// experiments.)
func (e *Engine) Stop() { e.stopped.Store(true) }

// Reset returns a drained engine to its initial state - virtual time
// zero, no events, no procs, fresh sequence numbers on every shard -
// so the structures built around it (and their goroutine-free event
// state) can be recycled instead of reconstructed. The shard layout,
// lookahead and worker count are board properties and survive. It
// refuses engines that are not quiescent: pending events, procs parked
// on conditions, or procs that never ran (their goroutines would leak
// and their wake-ups would corrupt the next simulation). A successful
// Run leaves the engine quiescent.
func (e *Engine) Reset() error {
	for _, s := range e.shards {
		if err := s.quiesceErr(); err != nil {
			return err
		}
	}
	for _, s := range e.shards {
		s.reset()
	}
	e.err = nil
	e.failed.Store(false)
	e.stopped.Store(false)
	e.rounds, e.phaseANS, e.phaseBNS = 0, 0, 0
	e.roundHook = nil
	return nil
}

// fail records the first error; safe to call from any shard's context.
func (e *Engine) fail(err error) {
	if e.failed.CompareAndSwap(false, true) {
		e.err = err
	}
}

// deadlockError reports every blocked proc by name and, on a sharded
// engine, each shard's low-water mark, so a stuck multi-chip run shows
// which chip stalled where.
func (e *Engine) deadlockError() error {
	var names []string
	for _, s := range e.shards {
		for _, p := range s.procs {
			if p.state == stateBlocked {
				names = append(names, fmt.Sprintf("%s@%v", p.name, p.blockedOn.Name()))
			}
		}
	}
	sort.Strings(names)
	if len(e.shards) == 1 {
		return fmt.Errorf("sim: deadlock at t=%v: %d proc(s) blocked forever: %v",
			e.Now(), e.totalBlocked(), names)
	}
	marks := make([]string, len(e.shards))
	for i, s := range e.shards {
		marks[i] = fmt.Sprintf("%s@t=%v", shardLabel(s.id), s.now)
	}
	return fmt.Errorf("sim: deadlock at t=%v: %d proc(s) blocked forever: %v (shard low-water marks: %v)",
		e.Now(), e.totalBlocked(), names, marks)
}
