package sim

import "iter"

// coro is a pooled coroutine: a goroutine the engine switches to and
// back directly through iter.Pull. It runs one Proc body at a time and
// parks idle in its engine's pool between them, so a warm engine
// spawns procs without creating goroutines. An idle coroutine holds no
// pointer to its engine or to any Proc, so it never keeps a dropped
// engine alive.
type coro struct {
	p     *Proc                   // the proc being run; nil while idle
	next  func() (struct{}, bool) // switches to the coroutine
	stop  func()                  // ends an idle coroutine
	yield func(struct{}) bool     // switches back; called only from inside it
}

// loop is the coroutine's body: run the assigned proc, hand the
// coroutine back to the pool, park idle until the next assignment. An
// idle park that returns false is the pool closing.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.body()
		c.release()
		if !yield(struct{}{}) {
			return
		}
	}
}

// release detaches the finished proc and returns the coroutine to its
// engine's pool.
func (c *coro) release() {
	p := c.p
	c.p, p.co = nil, nil
	pool := p.eng.pool
	pool.idle = append(pool.idle, c)
}

// coroPool is an engine's idle coroutines. The engine points to it,
// never the reverse, so the pool outlives the engine only until the
// engine's cleanup closes it.
type coroPool struct {
	idle []*coro
}

// run assigns p to an idle coroutine, or to a new one when none is
// idle, and switches to it until p first parks or returns.
func (pool *coroPool) run(p *Proc) {
	var c *coro
	if n := len(pool.idle); n > 0 {
		c = pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
	} else {
		c = new(coro)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, p.co = p, c
	c.next()
}

// close ends every idle coroutine. It runs as the engine's cleanup once
// the engine is unreachable; by then every coroutine is idle, since a
// parked proc's stack would still reach the engine.
func (pool *coroPool) close() {
	for _, c := range pool.idle {
		c.stop()
	}
	pool.idle = nil
}
