package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// settleGoroutines waits until at most base goroutines remain,
// collecting garbage each round: an engine's cleanup, which stops its
// idle coroutines, runs asynchronously after the collection that finds
// the engine unreachable.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines remain, want at most %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// baseline is the goroutine count before a test makes engines, once
// the cleanups of engines earlier tests dropped have stopped changing
// it.
func baseline() int {
	n := runtime.NumGoroutine()
	for range 100 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestTeardownFreesGoroutines pins that no goroutine outlives its
// engine on the failure paths: after a deadlock, a proc panic, a panic
// out of a callback, and a Stopped or time-limited run followed by
// Reset, every proc's coroutine is idle in the pool, and dropping the
// engine stops them all.
func TestTeardownFreesGoroutines(t *testing.T) {
	never := func(e *Engine) *Cond { return NewCond(e, "never") }
	for _, c := range []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"deadlock", func(t *testing.T, e *Engine) {
			c := never(e)
			for range 8 {
				e.Spawn("stuck", func(p *Proc) { p.Wait(3); p.WaitCond(c) })
			}
			if err := e.Run(); err == nil {
				t.Fatal("no deadlock")
			}
		}},
		{"panic", func(t *testing.T, e *Engine) {
			c := never(e)
			for range 8 {
				e.Spawn("parked", func(p *Proc) { p.WaitCond(c) })
				e.Spawn("sleeper", func(p *Proc) { p.Wait(100) })
			}
			e.Spawn("boom", func(p *Proc) { p.Wait(1); panic("boom") })
			if err := e.Run(); err == nil {
				t.Fatal("no panic error")
			}
		}},
		{"callback panic", func(t *testing.T, e *Engine) {
			c := never(e)
			for range 8 {
				e.Spawn("parked", func(p *Proc) { p.WaitCond(c) })
			}
			e.At(1, func() { panic("callback") })
			func() {
				defer func() { _ = recover() }()
				_ = e.Run()
				t.Fatal("the callback's panic did not propagate")
			}()
		}},
		{"stop then Reset", func(t *testing.T, e *Engine) {
			c := never(e)
			for range 8 {
				e.Spawn("parked", func(p *Proc) { p.WaitCond(c) })
			}
			e.At(1, e.Stop)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
		}},
		{"limit then Reset", func(t *testing.T, e *Engine) {
			for range 8 {
				e.Spawn("ticker", func(p *Proc) {
					for {
						p.Wait(10)
					}
				})
			}
			if err := e.RunUntil(55); err != nil {
				t.Fatal(err)
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := baseline()
			func() {
				e := NewEngine()
				c.run(t, e)
				for _, p := range e.procs {
					if p.co != nil {
						t.Fatalf("proc %q still holds a coroutine", p.Name())
					}
				}
				if runtime.NumGoroutine() > base+len(e.pool.idle) {
					t.Fatalf("%d goroutines with %d idle coroutines over a baseline of %d",
						runtime.NumGoroutine(), len(e.pool.idle), base)
				}
			}()
			settleGoroutines(t, base)
		})
	}
}

// TestPoolReusesCoroutines: a recycled engine runs each round on the
// coroutines of the first one; the pool holds as many as were live at
// once, and no round starts a goroutine.
func TestPoolReusesCoroutines(t *testing.T) {
	base := baseline()
	e := NewEngine()
	for round := range 4 {
		for i := range 16 {
			e.Spawn("w", func(p *Proc) { p.Wait(Time(i + 1)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if n := len(e.pool.idle); n != 16 {
			t.Fatalf("round %d: %d idle coroutines, want 16", round, n)
		}
		if n := runtime.NumGoroutine(); n > base+16 {
			t.Fatalf("round %d: %d goroutines, want at most %d", round, n, base+16)
		}
	}
	runtime.KeepAlive(e)
}

// TestLeakDroppedEngines: one-shot engines that are run and dropped,
// never Reset, leave no goroutine behind once collected.
func TestLeakDroppedEngines(t *testing.T) {
	base := baseline()
	for range 20 {
		e := NewEngine()
		for i := range 8 {
			e.Spawn("w", func(p *Proc) { p.Wait(Time(i)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base)
}

// TestSpawnAllocs pins spawning on a warm engine at no allocation: the
// Proc record comes from the free list the last Reset filled, the
// coroutine from the pool, the done condition is part of the record,
// and the name is not formatted.
func TestSpawnAllocs(t *testing.T) {
	const n = 64
	e := NewEngine()
	body := func(p *Proc) { p.Wait(1) }
	round := func() {
		for i := range n {
			e.SpawnIdx("k", i/8, i%8, body)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the pool, the heap and the proc table
	if per := testing.AllocsPerRun(20, round) / n; per != 0 {
		t.Errorf("%.2f allocs per spawned proc, want 0", per)
	}
}

// TestResetRecyclesProcs: Reset moves a run's Proc records onto the
// free list without their functions, and the next run's spawns take
// them back as fresh, unfinished procs with no waiters.
func TestResetRecyclesProcs(t *testing.T) {
	e := NewEngine()
	var old []*Proc
	for i := range 4 {
		old = append(old, e.SpawnIdx("k", 0, i, func(p *Proc) { p.Wait(1) }))
	}
	old = append(old, e.Spawn("joiner", func(p *Proc) { p.Join(old[0]) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(e.procs) != 0 || len(e.freeProcs) != 5 {
		t.Fatalf("after Reset: %d procs, %d free records, want 0 and 5", len(e.procs), len(e.freeProcs))
	}
	for _, p := range e.freeProcs {
		if p.fn != nil {
			t.Fatalf("recycled record %q keeps its function", p.Name())
		}
	}
	p := e.Spawn("fresh", func(p *Proc) { p.Wait(2) })
	if !slices.Contains(old, p) {
		t.Fatal("spawn did not reuse a recycled record")
	}
	if p.Finished() || p.ID() != 0 || p.Name() != "fresh" || p.done.first != nil || len(p.done.waiters) != 0 {
		t.Fatalf("reused record is stale: finished %v, id %d, name %q", p.Finished(), p.ID(), p.Name())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Finished() || e.Now() != 2 {
		t.Fatalf("reused record ran to %v, finished %v", e.Now(), p.Finished())
	}
}

// TestJoinAllocs: on a warm engine, joining a proc that has not finished
// allocates nothing - the joiner parks in its done condition's inline
// waiter slot. A round that joins allocates exactly what the same round
// waiting the same time instead does.
func TestJoinAllocs(t *testing.T) {
	e := NewEngine()
	kernel := func(p *Proc) { p.Wait(10) }
	round := func(join bool) func() {
		host := func(p *Proc) {
			k := e.Spawn("kernel", kernel)
			p.Wait(1)
			if k.Finished() {
				t.Fatal("the kernel finished before the join")
			}
			if join {
				p.Join(k)
			} else {
				p.Wait(9)
			}
		}
		return func() {
			e.Spawn("host", host)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Now() != 10 {
				t.Fatalf("round ended at %v, want 10", e.Now())
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
	joins, waits := round(true), round(false)
	joins() // warm the pool, the heap and the proc table
	waits()
	j, w := testing.AllocsPerRun(20, joins), testing.AllocsPerRun(20, waits)
	if j != w {
		t.Errorf("a round that joins allocates %v times, one that waits %v: the join allocates %v", j, w, j-w)
	}
}

// BenchmarkSpawnJoin times one round of the §III host pattern on a
// warm engine: a host proc spawns 64 kernels, joins them, and the
// engine is Reset.
func BenchmarkSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	kernel := func(p *Proc) { p.Wait(1) }
	host := func(p *Proc) {
		var kids [64]*Proc
		for i := range kids {
			kids[i] = e.SpawnIdx("k", i/8, i%8, kernel)
		}
		for _, k := range kids {
			p.Join(k)
		}
	}
	for range b.N {
		e.Spawn("host", host)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if err := e.Reset(); err != nil {
			b.Fatal(err)
		}
	}
}
