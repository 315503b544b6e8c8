package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestWaitOutsideBodyPanics pins the guard on parking a proc: a
// callback (or another proc) that calls Wait on a captured *Proc fails
// with a message naming the proc instead of hanging the engine.
func TestWaitOutsideBodyPanics(t *testing.T) {
	const want = `sim: proc "p" waited from outside its own body`
	t.Run("callback", func(t *testing.T) {
		e := NewEngine()
		var pp *Proc
		e.Spawn("p", func(p *Proc) { pp = p; p.Wait(10) })
		e.At(5, func() { pp.Wait(1) })
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("recovered %v, want %q", r, want)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned; want a panic")
	})
	t.Run("other proc", func(t *testing.T) {
		e := NewEngine()
		var pp *Proc
		e.Spawn("p", func(p *Proc) { pp = p; p.Wait(10) })
		e.Spawn("q", func(q *Proc) {
			q.Wait(5)
			cond := NewCond(e, "never")
			pp.WaitCond(cond)
		})
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
}

// TestEventHeapOrderProperty checks the typed heap against a sort: with
// interleaved pushes and pops over equal times, every pop returns the
// least (time, seq) key still queued.
func TestEventHeapOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []key
		var seq uint64
		pop := func() {
			sort.Slice(ref, func(i, j int) bool { return ref[i].less(ref[j]) })
			ev := h.pop()
			got := ev.key()
			if got != ref[0] {
				t.Fatalf("seed %d: popped %+v, want %+v", seed, got, ref[0])
			}
			ref = ref[1:]
		}
		for range 400 {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			ev := event{t: Time(rng.Intn(4)), seq: seq}
			seq++
			h.push(ev)
			ref = append(ref, ev.key())
		}
		for len(ref) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: heap holds %d events after draining", seed, len(h))
		}
	}
}

// runOn runs f on a fresh goroutine and waits for its result.
func runOn(f func() error) error {
	done := make(chan error)
	go func() { done <- f() }()
	return <-done
}

// TestResumeAcrossGoroutines parks procs in RunUntil on one goroutine
// and finishes them with Run on another: a coroutine may be resumed
// from a different goroutine than the one that started it, alone or
// interleaved with other procs.
func TestResumeAcrossGoroutines(t *testing.T) {
	for _, c := range []struct {
		name  string
		procs int
	}{{"single", 1}, {"four-procs", 4}} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			ends := make([]Time, c.procs)
			for i := range ends {
				e.Spawn(fmt.Sprintf("tick%d", i), func(p *Proc) {
					for range 10 {
						p.Wait(10)
					}
					ends[i] = p.Now()
				})
			}
			if err := runOn(func() error { return e.RunUntil(35) }); err != nil {
				t.Fatal(err)
			}
			for i, end := range ends {
				if end != 0 {
					t.Fatalf("proc %d finished inside RunUntil at %v", i, end)
				}
			}
			if err := runOn(e.Run); err != nil {
				t.Fatal(err)
			}
			for i, end := range ends {
				if end != 100 {
					t.Fatalf("proc %d ended at %v, want 100", i, end)
				}
			}
		})
	}
}

// TestSchedulingAllocs pins that scheduling allocates nothing per event
// on a warm engine, for a proc's Wait loop and for a callback chain:
// each measured run advances a live engine by one window of n events.
func TestSchedulingAllocs(t *testing.T) {
	const n, windows = 1000, 30 // AllocsPerRun(20) makes 21 runs
	for _, c := range []struct {
		name  string
		setup func(e *Engine)
	}{
		{"proc Wait loop", func(e *Engine) {
			e.Spawn("p", func(p *Proc) {
				for range n * windows {
					p.Wait(1)
				}
			})
		}},
		{"After chain", func(e *Engine) {
			count := 0
			var tick func()
			tick = func() {
				if count++; count < n*windows {
					e.After(1, tick)
				}
			}
			e.At(1, tick)
		}},
	} {
		e := NewEngine()
		c.setup(e)
		limit := Time(0)
		allocs := testing.AllocsPerRun(20, func() {
			limit += n
			if err := e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if per := allocs / n; per >= 0.01 {
			t.Errorf("%s: %.4f allocs per event (%.0f per window), want < 0.01", c.name, per, allocs)
		}
	}
}

// BenchmarkProcResume times one proc Wait round trip: schedule the
// resume, switch back to the engine, pop it and switch to the proc.
func BenchmarkProcResume(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for range b.N {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventPushPop times one callback event through a heap kept 64
// deep by idle far-future events.
func BenchmarkEventPushPop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := range 64 {
		e.At(Time(b.N)+Time(i)+1, func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
