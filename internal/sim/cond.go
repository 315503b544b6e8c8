package sim

import "strconv"

// Cond is a broadcast-only condition variable for Procs. A Proc calls
// WaitCond (or Proc-side helpers built on it) to park until another Proc
// or an engine callback calls Broadcast. Waits are level-triggered only in
// the sense that the waiter should re-check its predicate after waking, as
// with sync.Cond.
type Cond struct {
	eng     *Engine
	name    string
	idx     int   // >= 0: the name is name+idx, formatted lazily
	of      *Proc // a Proc's done condition: the name is "done:"+of.Name()
	waiters []*Proc
}

// NewCond creates a condition on eng. The name appears in deadlock
// diagnostics.
func NewCond(eng *Engine, name string) *Cond {
	return &Cond{eng: eng, name: name, idx: -1}
}

// NewCondIdx creates a condition named prefix+idx on eng. The name is
// formatted only when diagnostics ask for it, so construction-heavy
// callers (one condition per core, per DMA channel, per eLink request)
// stay allocation-lean on the hot path.
func NewCondIdx(eng *Engine, prefix string, idx int) *Cond {
	if idx < 0 {
		panic("sim: NewCondIdx with negative index")
	}
	return &Cond{eng: eng, name: prefix, idx: idx}
}

// Name returns the diagnostic name.
func (c *Cond) Name() string {
	if c.of != nil {
		return "done:" + c.of.Name()
	}
	if c.idx < 0 {
		return c.name
	}
	return c.name + strconv.Itoa(c.idx)
}

// WaitCond parks the Proc until c is broadcast. The Proc resumes at the
// virtual time of the broadcast (plus any delay the broadcaster added).
func (p *Proc) WaitCond(c *Cond) {
	p.mustBeRunning()
	c.waiters = append(c.waiters, p)
	p.state = stateBlocked
	p.blockedOn = c
	p.eng.blocked++
	p.park()
}

// Broadcast wakes every waiter at the current virtual time.
func (c *Cond) Broadcast() { c.BroadcastAfter(0) }

// BroadcastAfter wakes every waiter d after the current virtual time,
// modelling a propagation delay between the signalling event and the
// observer noticing it.
func (c *Cond) BroadcastAfter(d Time) {
	t := c.eng.now + d
	for _, p := range c.waiters {
		p.unblock(t)
	}
	c.waiters = c.waiters[:0]
}

// WaitFor repeatedly waits on c until pred() is true. It returns the
// number of wake-ups that were needed. pred is evaluated once before any
// waiting, so no wake-up happens if it already holds.
func (p *Proc) WaitFor(c *Cond, pred func() bool) int {
	n := 0
	for !pred() {
		p.WaitCond(c)
		n++
	}
	return n
}
