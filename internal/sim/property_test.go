package sim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Property: events fire in nondecreasing time order regardless of the
// order they were scheduled in.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a proc's clock never goes backwards, whatever it waits on.
func TestProcClockMonotoneProperty(t *testing.T) {
	f := func(waits []uint8) bool {
		e := NewEngine()
		ok := true
		c := NewCond(e, "tick")
		// The ticker broadcasts well past any time the subject can reach
		// (11 waits of <= 255 plus 4 cond waits of <= 1000 each), so a
		// WaitCond below always has a future broadcast to catch.
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Wait(1000)
				c.Broadcast()
			}
		})
		e.Spawn("subject", func(p *Proc) {
			last := p.Now()
			for i, w := range waits {
				if i > 10 {
					break
				}
				if w%2 == 0 {
					p.Wait(Time(w))
				} else if i < 4 {
					p.WaitCond(c)
				}
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Resource never double-books - consecutive grants on one
// resource have non-overlapping intervals, and begin >= request time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct{ At, Dur uint16 }) bool {
		r := NewResource("x")
		type iv struct{ b, e Time }
		var got []iv
		for _, q := range reqs {
			if q.Dur == 0 {
				continue
			}
			b, e := r.Use(Time(q.At), Time(q.Dur))
			if b < Time(q.At) || e != b+Time(q.Dur) {
				return false
			}
			got = append(got, iv{b, e})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].b < got[j].b })
		for i := 1; i < len(got); i++ {
			if got[i].b < got[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Broadcast before any waiter exists must not wake later waiters
// (condition variables are not latches).
func TestCondIsNotALatch(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "edge")
	e.Spawn("early", func(p *Proc) {
		c.Broadcast() // nobody is waiting
	})
	woke := false
	e.Spawn("late", func(p *Proc) {
		p.Wait(10)
		done := NewCond(e, "timeout")
		e.At(100, func() { done.Broadcast() })
		// Race the never-signalled cond against a timeout using a helper proc.
		e.Spawn("waiter", func(q *Proc) {
			q.WaitCond(c)
			woke = true
		})
		p.WaitCond(done)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke {
		t.Fatal("waiter woke from a broadcast that happened before it waited")
	}
}

// engineTrace runs a pseudo-random mix of procs, timer callbacks and
// resource contention derived from seed and returns the full event
// trace (proc id, virtual time) in execution order.
func engineTrace(seed uint64) []Time {
	rng := NewRand(seed)
	e := NewEngine()
	res := []*Resource{NewResource("a"), NewResource("b"), NewResource("c")}
	var trace []Time
	record := func(id int) { trace = append(trace, Time(id)<<32|e.Now()) }
	nProcs := 4 + rng.Intn(12)
	for p := 0; p < nProcs; p++ {
		p := p
		steps := 1 + rng.Intn(6)
		waits := make([]Time, steps)
		uses := make([]int, steps)
		durs := make([]Time, steps)
		for i := 0; i < steps; i++ {
			waits[i] = Time(rng.Intn(50))
			uses[i] = rng.Intn(len(res))
			durs[i] = Time(1 + rng.Intn(20))
		}
		e.SpawnAt(Time(rng.Intn(30)), "p", func(pr *Proc) {
			for i := 0; i < steps; i++ {
				pr.Wait(waits[i])
				_, end := res[uses[i]].Use(pr.Now(), durs[i])
				pr.WaitUntil(end)
				record(p)
			}
		})
	}
	nTimers := rng.Intn(10)
	for i := 0; i < nTimers; i++ {
		id := 100 + i
		e.At(Time(rng.Intn(200)), func() { record(id) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return trace
}

// FuzzEngineOrderingDeterminism: same seed + same spawn order => an
// identical event trace, the property every multi-chip simulation rests
// on. The corpus seeds run under plain `go test`.
func FuzzEngineOrderingDeterminism(f *testing.F) {
	for _, s := range []uint64{0, 1, 3, 1234, 1 << 33} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		a, b := engineTrace(seed), engineTrace(seed)
		if len(a) != len(b) {
			t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d differs: %#x vs %#x", i, a[i], b[i])
			}
		}
	})
}

func TestEngineManyProcsDeterministicTrace(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 32; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Wait(Time(100 - i)) // reverse-sorted wake order
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace differs between runs")
		}
		if a[i] != 31-i {
			t.Fatalf("wake order wrong at %d: %v", i, a[:i+1])
		}
	}
}

// orderRun is one execution of the random event workload: every
// executed event in dispatch order, with the key it was scheduled
// under.
type orderRun []orderExec

// orderExec is one executed event. made is how many events had been
// dispatched when it was created: it was pending at every dispatch
// index >= made.
type orderExec struct {
	made int
	k    key
}

// orderEvent builds one event of the random workload, keyed k: it logs
// its execution, then derives 1-2 children from its own seed (never
// from shared state, so the event population is independent of
// execution order) and schedules them at random delays, predicting the
// key each child will carry.
func orderEvent(e *Engine, log *orderRun, k key, seed uint64, depth int) func() {
	made := len(*log)
	return func() {
		*log = append(*log, orderExec{made, k})
		if depth == 0 {
			return
		}
		r := NewRand(seed)
		for i := range 1 + r.Intn(2) {
			t := e.Now() + Time(r.Intn(50))
			child := seed*0x9E3779B97F4A7C15 + uint64(i) + 1
			e.At(t, orderEvent(e, log, key{t: t, seq: e.seq}, child, depth-1))
		}
	}
}

// runOrder executes the seeded random workload on e and returns its
// dispatch log.
func runOrder(t *testing.T, e *Engine, seed uint64, depth int) orderRun {
	t.Helper()
	var log orderRun
	for i := range 5 {
		k := key{t: Time(i), seq: e.seq}
		e.At(Time(i), orderEvent(e, &log, k, seed+uint64(i), depth))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestEventOrderFuzz: seeded random workloads scheduling events at
// random delays must run in non-decreasing time, and every dispatch
// must pick the least (time, seq) key pending. The schedule must repeat
// exactly on a fresh engine and on the same engine after Reset.
func TestEventOrderFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		e := NewEngine()
		base := runOrder(t, e, seed, 6)
		if len(base) < 50 {
			t.Fatalf("seed %d generated only %d events; workload degenerate", seed, len(base))
		}
		var now Time
		for i, x := range base {
			if x.k.t < now {
				t.Fatalf("seed %d: ran t=%v after t=%v", seed, x.k.t, now)
			}
			now = x.k.t
			for _, y := range base[i+1:] {
				if y.made <= i && y.k.less(x.k) {
					t.Fatalf("seed %d: dispatch %d ran key %+v while %+v was pending", seed, i, x.k, y.k)
				}
			}
		}
		if again := runOrder(t, NewEngine(), seed, 6); !reflect.DeepEqual(again, base) {
			t.Errorf("seed %d: a fresh engine ran a different schedule", seed)
		}
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if again := runOrder(t, e, seed, 6); !reflect.DeepEqual(again, base) {
			t.Errorf("seed %d: the engine ran a different schedule after Reset", seed)
		}
	}
}
