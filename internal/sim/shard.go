package sim

import "fmt"

// key is the deterministic total order over events: virtual time first,
// then the origin tag, then the scheduling shard's id, then that
// shard's scheduling sequence number. Because the tag/id/seq triple is
// always the *sender's* (the shard whose code created the event), a key
// is a pure function of the simulated program: the same board produces
// the same keys on every run, and the engine executes them in key order
// across all shards. Every cross-shard interaction is an event, so the
// partition never shows in the schedule beyond the sender ids it
// stamps.
//
// The tag exists for same-time arbitration of shared resources. Local
// events are untagged (-1) and order among themselves by creation
// order, exactly like the classic single-heap engine. Cross-shard
// requests that contend for a shared resource (eLink arbiter, DRAM
// read link, boundary mesh slots) are tagged with the issuing core's
// index via SendTagged, so simultaneous requests from different chips
// are served in core order - a fixed priority arbiter - rather than in
// the arbitrary order of shard ids. Core order is also what the
// single-heap engine produces for the symmetric lock-step access
// patterns of real kernels (cores are launched, woken and resumed in
// index order), which is what keeps sharded runs bit-identical to the
// classic engine.
type key struct {
	t   Time
	tag int32
	sid int32
	seq uint64
}

func (k key) less(o key) bool {
	if k.t != o.t {
		return k.t < o.t
	}
	if k.tag != o.tag {
		return k.tag < o.tag
	}
	if k.sid != o.sid {
		return k.sid < o.sid
	}
	return k.seq < o.seq
}

// untagged is the tag of every locally scheduled event; it sorts ahead
// of any core-tagged cross-shard request at the same time.
const untagged = -1

// Shard is one partition of an Engine: its own event heap, clock,
// sequence counter, Procs, and (via the structures built on top) the
// Conds, Resources and memories of one chip. Every piece of simulation
// state is owned by exactly one shard, and only events dispatched by
// that shard may touch it; interactions between shards travel as
// events posted with Send. An engine always has at least shard 0 (the
// "sys" shard: host, eLink arbiter, DRAM); multi-chip boards add one
// shard per chip with Engine.AddShards.
type Shard struct {
	eng *Engine
	id  int32

	heap    eventHeap
	now     Time
	seq     uint64
	procs   []*Proc
	blocked int // procs waiting on a Cond (not in the heap)
	rng     *Rand

	// running is true while an event of this shard is being dispatched;
	// it backs the ownership assertions (a cheap bool, flipped once per
	// event).
	running bool

	// curProc is the proc of the event being dispatched (nil for
	// callback events); it backs Proc.mustBeRunning.
	curProc *Proc

	// Scheduler counters, snapshotted by Engine.Stats (see ShardStats).
	// Each is a single increment on a path that already does real work,
	// so they are unconditionally on; read between runs.
	nEvents     uint64
	heapPeak    int
	crossPosts  uint64
	taggedPosts uint64
}

// Engine returns the engine this shard belongs to.
func (s *Shard) Engine() *Engine { return s.eng }

// ID returns the shard's index: 0 is the sys shard (host, eLink, DRAM),
// 1..n are chip shards.
func (s *Shard) ID() int { return int(s.id) }

// Now returns the shard's current virtual time. During Run it is the
// timestamp of the event being processed on this shard.
func (s *Shard) Now() Time { return s.now }

// Rand returns the shard's deterministic PRNG stream, seeded from the
// shard id so streams are independent, reproducible, and survive Reset
// re-seeded identically.
func (s *Shard) Rand() *Rand {
	if s.rng == nil {
		s.rng = NewRand(rngSeedBase + uint64(s.id))
	}
	return s.rng
}

// rngSeedBase offsets shard RNG seeds away from 0 (NewRand remaps 0).
const rngSeedBase = 0x51A2D03B97F4A7C1

// assertOwner panics when code running outside this shard's execution
// context schedules local work on it - the bug class the shard
// partition exists to exclude. Scheduling from outside any running
// event (construction, between runs) is always allowed.
func (s *Shard) assertOwner(what string) {
	if s.eng.midRun && !s.running {
		panic(fmt.Sprintf("sim: %s on shard %d from outside its execution context (use Send/SpawnOn for cross-shard work)", what, s.id))
	}
}

// schedule enqueues a locally created event, stamping it with this
// shard's (id, seq) key.
func (s *Shard) schedule(ev event) {
	ev.tag = untagged
	ev.sid = s.id
	ev.seq = s.seq
	s.seq++
	s.heap.push(ev)
	s.notePeak()
}

// notePeak records the heap high-water mark; call after any push.
func (s *Shard) notePeak() {
	if n := len(s.heap); n > s.heapPeak {
		s.heapPeak = n
	}
}

// At schedules fn to run inline on this shard at absolute time t (or at
// the shard's current time if t is in the past). It must be called from
// this shard's own execution context; cross-shard scheduling goes
// through Send.
func (s *Shard) At(t Time, fn func()) {
	s.assertOwner("At")
	if t < s.now {
		t = s.now
	}
	s.schedule(event{t: t, kind: evCall, fn: fn})
}

// After schedules fn to run d after the shard's current virtual time.
func (s *Shard) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Send schedules fn to run on shard to at absolute time t. It is the
// only way to make another shard do something: fn runs in to's
// execution context, in deterministic key order - the event is keyed by
// the *sender's* (shard, seq), so the schedule is a function of the
// simulated program alone. fn must touch only state owned by to
// (plus values the sender froze before sending). t is clamped to the
// sender's current time.
func (s *Shard) Send(to *Shard, t Time, fn func()) {
	s.post(to, t, untagged, event{kind: evCall, fn: fn})
}

// SendTagged is Send for cross-shard requests that contend for a shared
// resource: the event carries the issuing core's index as its
// arbitration tag, so simultaneous requests from different chips are
// granted in core order (a fixed-priority arbiter) instead of shard-id
// order. Same determinism guarantees as Send - the tag is part of the
// schedule-independent key.
func (s *Shard) SendTagged(to *Shard, t Time, core int, fn func()) {
	s.post(to, t, int32(core), event{kind: evCall, fn: fn})
}

func (s *Shard) post(to *Shard, t Time, tag int32, ev event) {
	if t < s.now {
		t = s.now
	}
	ev.t = t
	if to == s {
		// Self-sends keep creation order (untagged), exactly like the
		// classic engine: with a single shard there is no cross-chip
		// arbitration to model and legacy order is the golden one.
		s.assertOwner("Send")
		s.schedule(ev)
		return
	}
	s.assertRunningFor("Send")
	ev.tag = tag
	ev.sid = s.id
	ev.seq = s.seq
	s.seq++
	s.crossPosts++
	if tag != untagged {
		s.taggedPosts++
	}
	to.heap.push(ev)
	to.notePeak()
}

// assertRunningFor panics when cross-shard work is posted from outside
// any execution context during a run (the key would not be stamped by
// the shard that causally produced the event).
func (s *Shard) assertRunningFor(what string) {
	if s.eng.midRun && !s.running {
		panic(fmt.Sprintf("sim: cross-shard %s from outside shard %d's execution context", what, s.id))
	}
}

// Spawn creates a process named name on this shard running fn and
// schedules it to start at the shard's current virtual time.
func (s *Shard) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt is Spawn with an explicit absolute start time.
func (s *Shard) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	s.assertOwner("Spawn")
	if t < s.now {
		t = s.now
	}
	p := s.newProc(name, fn)
	p.id = len(s.procs)
	s.procs = append(s.procs, p)
	s.schedule(event{t: t, kind: evStart, proc: p})
	return p
}

// SpawnOn creates a process on shard to, scheduled from this shard's
// execution context (the host launching a kernel onto a chip shard).
// The proc joins to's proc set when its start event executes.
func (s *Shard) SpawnOn(to *Shard, t Time, name string, fn func(p *Proc)) *Proc {
	if to == s {
		return s.SpawnAt(t, name, fn)
	}
	p := to.newProc(name, fn)
	p.id = -1 // assigned when the start event runs on to
	s.post(to, t, untagged, event{kind: evStart, proc: p})
	return p
}

func (s *Shard) newProc(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sh:    s,
		name:  name,
		fn:    fn,
		state: stateNew,
	}
	// The done cond is owned by shard 0: only host-side code joins
	// kernels.
	p.done = NewCondOn(s.eng.shards[0], "done:"+name)
	return p
}

// dispatch runs one event in this shard's context. A proc event
// switches to the proc's coroutine, which runs until it parks again.
func (s *Shard) dispatch(ev event) {
	s.nEvents++
	s.now = ev.t
	s.curProc = ev.proc
	s.running = true
	switch ev.kind {
	case evCall:
		ev.fn()
	case evStart:
		p := ev.proc
		if p.id < 0 { // cross-shard spawn joins the proc set on arrival
			p.id = len(s.procs)
			s.procs = append(s.procs, p)
		}
		p.start()
	case evResume:
		p := ev.proc
		if p.state == stateDone {
			break // stale wake-up after proc ended
		}
		p.state = stateRunning
		p.now = ev.t
		p.next()
	}
	s.running = false
	s.curProc = nil
}

// quiesceErr reports why the shard is not recyclable, or nil.
func (s *Shard) quiesceErr() error {
	if len(s.heap) != 0 || s.blocked != 0 {
		return fmt.Errorf("sim: Reset of non-quiescent engine (%d pending events, %d blocked procs)",
			len(s.heap), s.blocked)
	}
	for _, p := range s.procs {
		if p.state != stateDone {
			return fmt.Errorf("sim: Reset with proc %q not finished", p.name)
		}
	}
	return nil
}

// reset returns the shard to its initial state. Callers have verified
// quiescence.
func (s *Shard) reset() {
	clear(s.procs)
	s.procs = s.procs[:0]
	s.now, s.seq = 0, 0
	s.rng = nil
	s.nEvents, s.crossPosts, s.taggedPosts = 0, 0, 0
	s.heapPeak = 0
}
