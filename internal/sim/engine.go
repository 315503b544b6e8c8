package sim

import (
	"fmt"
	"sort"
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
// schedule-independent total order (see key). The kind byte sits at
// the end so an event packs into 48 bytes: the heap moves events by
// value.
type event struct {
	t    Time
	tag  int32
	sid  int32
	seq  uint64
	proc *Proc
	fn   func()
	kind eventKind
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
// one or more shards (see Shard). A single-shard engine is the classic
// one-heap engine; a multi-shard engine (one shard per chip of a board,
// plus the sys shard) executes the canonical event order - the total
// order over (time, tag, shard, seq) keys - as a plain merge of the
// per-shard heaps on the calling goroutine. The metrics of a run are
// bit-identical for every shard partition, because the executed
// schedule is the same canonical order. Host parallelism lives one
// level up: Runner executes whole jobs concurrently, one engine each.
//
// Procs run as coroutines, and the engine executes at most one of them
// at a time, always in key order, so simulations are fully
// reproducible. The zero value is not usable; create engines with
// NewEngine.
type Engine struct {
	shards []*Shard

	// midRun is set for the duration of Run; it arms the shard
	// ownership assertions.
	midRun bool

	err     error // the first failure (a proc panic); ends the run
	stopped bool  // Stop was called: blocked procs are not a deadlock
}

// NewEngine returns an empty single-shard engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
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

// Now returns the current virtual time: on a single-shard engine the
// time of the event being processed, on a sharded one the maximum shard
// time (the board's completion time after a run). Shard code should use
// Shard.Now or Proc.Now, which are exact in every layout.
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
//
// It merges the shard heaps in global key order: each step dispatches
// the minimum-keyed event across all shards. A single-shard engine is
// the one-heap case of the same merge.
func (e *Engine) RunUntil(limit Time) error {
	e.midRun = true
	defer func() { e.midRun = false }()
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
			if e.totalBlocked() > 0 && !e.stopped {
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
func (e *Engine) Stop() { e.stopped = true }

// Reset returns a drained engine to its initial state - virtual time
// zero, no events, no procs, fresh sequence numbers on every shard -
// so the structures built around it (and their goroutine-free event
// state) can be recycled instead of reconstructed. The shard layout is
// a board property and survives. It
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
	e.stopped = false
	return nil
}

// fail records the first error, which ends the run.
func (e *Engine) fail(err error) {
	if e.err == nil {
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
