package sim

import (
	"fmt"
	"sync"
)

// key is the deterministic total order over events: virtual time first,
// then the origin tag, then the scheduling shard's id, then that
// shard's scheduling sequence number. Because the tag/id/seq triple is
// always the *sender's* (the shard whose code created the event), a key
// is a pure function of the simulated program, never of host
// scheduling: the same board produces the same keys whether its shards
// run on one worker or sixteen. That is the whole determinism argument
// of the parallel engine - events execute in key order per shard, and
// every cross-shard interaction is an event.
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

// bookingRetryTag is the tag of the resume event AwaitBookingWindow
// schedules when it parks a proc mid-booking. It sorts below untagged,
// so the parked remainder resumes ahead of every other event at the
// same instant - the exact schedule position the uninterrupted event
// occupied. No cross-shard post can ever carry it (posts are untagged
// or core-tagged), so nothing can slot in front of a parked remainder.
const bookingRetryTag = -2

// infKey compares greater than every real event key (real shard ids
// and tags are small ints).
var infKey = key{t: ^Time(0), tag: 1 << 30, sid: 1 << 30, seq: ^uint64(0)}

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

	// inbox receives cross-shard posts while a parallel Run is in
	// flight; the owner drains it into the heap at every round
	// barrier. Outside parallel runs Send pushes straight into the
	// heap.
	inboxMu sync.Mutex
	inbox   []event

	// Scheduler scratch, written by the owning worker and read by the
	// coordinator strictly between round barriers.
	frontKey key
	frontOK  bool
	bound    key
	// safeKey is the round's booking floor: the key-precise (never
	// lifted) minimum of the other chip shards' frontiers. Below it no
	// other chip can still issue a cross-chip mesh walk, so booking
	// order-sensitive link state is sound; at or above it a booking
	// must wait (see AwaitBookingWindow). Written by the coordinator
	// alongside bound.
	safeKey key
	// execKey is the key of the event this shard is currently
	// dispatching, and curProc its proc (nil for callback events). They
	// let a booking made mid-event locate its own schedule position and
	// park its proc. Owned by this shard's execution context.
	execKey key
	curProc *Proc
	// posted is set when this shard sent a cross-shard event in the
	// current round; the shard stops its round at that point (see
	// phaseB) so no shard ever executes ahead of a post whose
	// consequences are not yet visible in any frontier. stalled is its
	// booking twin: set when a booking parked its proc this round, it
	// stops the round so the retry waits for fresh frontiers instead of
	// spinning on the stale booking floor.
	posted  bool
	stalled bool

	// Scheduler counters, snapshotted by Engine.Stats (see ShardStats).
	// Each is a single increment on a path that already does real work,
	// so they are unconditionally on. Written only from this shard's
	// execution context (or single-threaded engine code); read between
	// runs.
	nEvents      uint64
	heapPeak     int
	crossPosts   uint64
	taggedPosts  uint64
	bookingParks uint64
	heldByBound  uint64
	heldByFloor  uint64
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
// the *sender's* (shard, seq), so the schedule is independent of how
// shards are mapped to workers. fn must touch only state owned by to
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

// AtBooking is At for callback events that may book mesh link occupancy
// when they run (a DMA chain continuation delivering its next
// descriptor). The parallel scheduler holds such an event - and the
// shard's round - until its key drops below the booking floor, because
// a callback cannot park mid-execution the way a proc can (see
// AwaitBookingWindow). In sequential modes it is exactly At.
func (s *Shard) AtBooking(t Time, fn func()) {
	s.assertOwner("AtBooking")
	if t < s.now {
		t = s.now
	}
	s.schedule(event{t: t, kind: evCall, fn: fn, mayBook: true})
}

// SendBooking is Send for cross-shard continuations that may book mesh
// link occupancy on the target shard. See AtBooking.
func (s *Shard) SendBooking(to *Shard, t Time, fn func()) {
	s.post(to, t, untagged, event{kind: evCall, fn: fn, mayBook: true})
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
	if s.eng.parallel {
		s.posted = true
		to.inboxMu.Lock()
		to.inbox = append(to.inbox, ev)
		to.inboxMu.Unlock()
		return
	}
	// Sequential modes run shards on one goroutine, so writing the
	// receiver's heap (and peak) directly is safe.
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
	// The done cond is created eagerly: it is owned by shard 0 (only
	// host-side code joins kernels) and lazily creating it from two
	// shards would race.
	p.done = NewCondOn(s.eng.shards[0], "done:"+name)
	return p
}

// AwaitBookingWindow delays the caller until booking order-sensitive
// shared board state at the current execution key is sound under the
// parallel scheduler; everywhere else (sequential runs, the sys shard,
// calls from outside a dispatch) it is a no-op.
//
// Mesh link occupancy is a FIFO high-water mark per slot, so bookings
// do not commute: they must happen in canonical key order. Cross-chip
// walks book on the sys shard at their issue event's key - a zero-
// latency effect the chip-to-chip lookahead lift knows nothing about.
// A chip running inside another chip's lifted window could therefore
// book its local links at a key above a cross walk still in flight to
// sys, inverting the canonical booking order (and with it arrival
// times, wake-ups, and poll counts). The cure is a key-precise booking
// floor: a chip-shard booking proceeds only when its key is below every
// other chip's unlifted frontier, so any lower-keyed walk is provably
// already in sys's heap - where the ordinary (never lifted) sys bound
// orders it ahead of this shard's events. When the floor is not yet
// met, the event's proc parks and its remainder resumes at the same
// virtual time in a later round, keyed with bookingRetryTag so nothing
// else at that instant can overtake it; the executed schedule stays
// exactly canonical. Callback events cannot park, so events that may
// book must be scheduled with AtBooking/SendBooking, which phaseB holds
// whole; a booking from an unmarked callback panics.
func (s *Shard) AwaitBookingWindow() {
	if !s.eng.parallel || s.id == 0 || !s.running {
		return
	}
	for !s.execKey.less(s.safeKey) {
		p := s.curProc
		if p == nil {
			panic(fmt.Sprintf("sim: mesh booking from a plain callback on shard %d during a parallel run (schedule it with AtBooking/SendBooking)", s.id))
		}
		p.mustBeRunning()
		s.bookingParks++
		s.stalled = true
		p.state = stateWaiting
		s.heap.push(event{t: s.now, tag: bookingRetryTag, sid: s.id, seq: s.seq, kind: evResume, proc: p})
		s.seq++
		s.notePeak()
		p.yield(struct{}{})
	}
}

// drainInbox moves posted events into the heap. Owner context only.
func (s *Shard) drainInbox() {
	s.inboxMu.Lock()
	pending := s.inbox
	s.inbox = nil
	s.inboxMu.Unlock()
	for _, ev := range pending {
		if ev.t < s.now {
			panic(fmt.Sprintf("sim: shard %d received event at t=%v from shard %d in its past (now %v); lookahead violated",
				s.id, ev.t, ev.sid, s.now))
		}
		s.heap.push(ev)
	}
	s.notePeak()
}

// dispatch runs one event in this shard's context. A proc event
// switches to the proc's coroutine, which runs until it parks again.
func (s *Shard) dispatch(ev event) {
	s.nEvents++
	s.now = ev.t
	s.execKey = ev.key()
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

// phaseA is the first half of a parallel round: drain cross-shard
// posts, publish the frontier.
func (s *Shard) phaseA() {
	s.drainInbox()
	s.posted = false
	s.stalled = false
	if len(s.heap) == 0 {
		s.frontOK = false
		return
	}
	s.frontOK = true
	s.frontKey = s.heap[0].key()
}

// phaseB is the second half of a parallel round: execute events in key
// order while they stay below the shard's window. The round ends early
// after any event that posted cross-shard work: an undrained post's
// consequences (a reply chain, a state change another shard's bound
// should see) are invisible to the frontiers the current bounds were
// derived from, so running further on stale bounds would be unsound.
// The post is drained at the next barrier and the frontiers then cover
// it.
func (s *Shard) phaseB(limit Time) {
	for len(s.heap) > 0 && !s.eng.failed.Load() {
		top := &s.heap[0]
		if top.t > limit {
			return
		}
		if !top.key().less(s.bound) {
			s.heldByBound++
			return
		}
		if top.mayBook && !top.key().less(s.safeKey) {
			// A booking event must not run while another chip can
			// still issue a lower-keyed cross-chip walk; hold it (and
			// the round) until the frontiers pass it. See
			// AwaitBookingWindow.
			s.heldByFloor++
			return
		}
		s.dispatch(s.heap.pop())
		if s.posted || s.stalled {
			return
		}
	}
}

// quiesceErr reports why the shard is not recyclable, or nil.
func (s *Shard) quiesceErr() error {
	if len(s.heap) != 0 || len(s.inbox) != 0 || s.blocked != 0 {
		return fmt.Errorf("sim: Reset of non-quiescent engine (%d pending events, %d blocked procs)",
			len(s.heap)+len(s.inbox), s.blocked)
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
	s.posted = false
	s.stalled = false
	s.nEvents, s.crossPosts, s.taggedPosts = 0, 0, 0
	s.bookingParks, s.heldByBound, s.heldByFloor = 0, 0, 0
	s.heapPeak = 0
}
