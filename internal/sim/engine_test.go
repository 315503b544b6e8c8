package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestEventSize pins the heap entry's layout: the heap moves events by
// value, so a field added to event costs every push and pop, and a
// pointer in it would put every move behind the collector's write
// barrier while it marks.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
}

func TestTimeUnits(t *testing.T) {
	if Cycle*600_000_000 != Second {
		t.Fatalf("600M cycles = %v, want exactly one second", Cycle*600_000_000)
	}
	if Cycles(3) != 15 {
		t.Fatalf("Cycles(3) = %d, want 15 units", Cycles(3))
	}
	if got := Time(Second).Seconds(); got != 1.0 {
		t.Fatalf("Seconds() = %v, want 1", got)
	}
	if got := Cycle.Nanoseconds(); got < 1.66 || got > 1.67 {
		t.Fatalf("cycle = %v ns, want 5/3 ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{3, "1ns"},
		{3000, "1us"},
		{3000000, "1ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestSingleProcAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Wait(10)
		at = append(at, p.Now())
		p.Wait(Cycles(2))
		at = append(at, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 20}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("checkpoint %d at t=%v, want %v", i, at[i], want[i])
		}
	}
}

func TestProcsInterleaveInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	logstep := func(p *Proc, tag string) {
		order = append(order, tag)
	}
	e.Spawn("a", func(p *Proc) {
		logstep(p, "a0")
		p.Wait(5)
		logstep(p, "a5")
		p.Wait(10)
		logstep(p, "a15")
	})
	e.Spawn("b", func(p *Proc) {
		logstep(p, "b0")
		p.Wait(7)
		logstep(p, "b7")
		p.Wait(1)
		logstep(p, "b8")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0 b0 a5 b7 b8 a15"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	// Two procs waiting to the same instant must resume in scheduling order,
	// and the order must be identical on every run.
	for trial := 0; trial < 10; trial++ {
		e := NewEngine()
		var order []string
		for _, name := range []string{"x", "y", "z"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				p.Wait(100)
				order = append(order, name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, ""); got != "xyz" {
			t.Fatalf("trial %d: order %q, want xyz", trial, got)
		}
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "go")
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.WaitCond(c)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Wait(42)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 42 {
			t.Fatalf("waiter woke at %v, want 42", w)
		}
	}
}

func TestWaitForPredicate(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "counter")
	n := 0
	var wakeups int
	e.Spawn("w", func(p *Proc) {
		wakeups = p.WaitFor(c, func() bool { return n >= 3 })
	})
	e.Spawn("inc", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			n++
			c.Broadcast()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeups != 3 {
		t.Fatalf("wakeups = %d, want 3", wakeups)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never")
	e.Spawn("stuck", func(p *Proc) { p.WaitCond(c) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("deadlock report %q should name the proc and the cond", err)
	}
}

// TestDeadlockReportAndRecycle is the engine's deadlock fixture: procs
// waiting on conditions nobody signals. Run returns the deadlock error
// naming every blocked proc with its condition, sorted, then unwinds
// them (their deferred calls run), and keeps returning that error
// until Reset. After Reset the engine replays a fresh engine's
// schedule exactly, counters included.
func TestDeadlockReportAndRecycle(t *testing.T) {
	e := NewEngine()
	a, b := NewCond(e, "never-a"), NewCond(e, "never-b")
	unwound := 0
	for _, w := range []struct {
		name string
		c    *Cond
	}{{"zeta", a}, {"mid", b}, {"alpha", a}} {
		e.Spawn(w.name, func(p *Proc) {
			defer func() { unwound++ }()
			p.Wait(42 * Nanosecond)
			p.WaitCond(w.c)
			t.Errorf("%s resumed after the deadlock", w.name)
		})
	}
	e.Spawn("done", func(p *Proc) { p.Wait(7) })
	err := e.Run()
	const want = "sim: deadlock at t=42ns: 3 proc(s) blocked forever: [alpha@never-a mid@never-b zeta@never-a]"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if unwound != 3 {
		t.Fatalf("%d of 3 blocked procs unwound", unwound)
	}
	for _, p := range e.procs {
		if !p.Finished() {
			t.Errorf("proc %q not finished after the failed run", p.Name())
		}
	}
	if again := e.Run(); again == nil || again.Error() != want {
		t.Fatalf("second Run = %v, want the same deadlock", again)
	}
	if len(e.pool.idle) != 4 {
		t.Errorf("%d idle coroutines, want all 4 back in the pool", len(e.pool.idle))
	}
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset of a deadlocked engine: %v", err)
	}
	fresh := NewEngine()
	want2, got := runSchedule(t, fresh), runSchedule(t, e)
	if !slices.Equal(got, want2) {
		t.Fatalf("recycled engine ran %v, fresh %v", got, want2)
	}
	if got, want := e.Stats(), fresh.Stats(); got != want {
		t.Fatalf("recycled engine stats %+v, fresh %+v", got, want)
	}
}

func TestStopSuppressesDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never")
	e.Spawn("stuck", func(p *Proc) { p.WaitCond(c) })
	e.Spawn("stopper", func(p *Proc) {
		p.Wait(5)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("after Stop, err = %v, want nil", err)
	}
}

// TestPanicPropagates: a proc's panic surfaces as Run's error naming
// the proc instead of crashing the process, and it ends the run: no
// later event runs. The error is a *PanicError whose message is one
// line; the stack rides in its Stack field.
func TestPanicPropagates(t *testing.T) {
	e := NewEngine()
	late := false
	e.At(5, func() { late = true })
	e.Spawn("boom", func(p *Proc) {
		p.Wait(Nanosecond)
		panic("kaboom")
	})
	err := e.Run()
	const want = `sim: proc "boom" panicked at t=1ns: kaboom`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" || !strings.Contains(string(pe.Stack), "TestPanicPropagates") {
		t.Fatalf("err = %#v, want a *PanicError carrying the value and the stack", err)
	}
	if late {
		t.Error("an event after the panic still ran")
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	var last Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(10)
			last = p.Now()
		}
	})
	if err := e.RunUntil(55); err != nil {
		t.Fatal(err)
	}
	if last != 50 {
		t.Fatalf("last tick at %v, want 50", last)
	}
	if e.Now() > 55 {
		t.Fatalf("engine advanced to %v, beyond limit", e.Now())
	}
}

func TestCallbacksRunInline(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.At(5, func() { ticks = append(ticks, e.Now()) })
	e.At(15, func() { ticks = append(ticks, e.Now()) })
	e.Spawn("p", func(p *Proc) { p.Wait(10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 || ticks[0] != 5 || ticks[1] != 15 {
		t.Fatalf("ticks = %v, want [5 15]", ticks)
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine()
	var joinedAt Time
	worker := e.Spawn("worker", func(p *Proc) { p.Wait(100) })
	e.Spawn("waiter", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != 100 {
		t.Fatalf("joined at %v, want 100", joinedAt)
	}
	if !worker.Finished() {
		t.Fatal("worker not finished")
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Wait(10)
		child := e.Spawn("child", func(q *Proc) {
			q.Wait(5)
			childRan = q.Now()
		})
		p.Join(child)
		if p.Now() != 15 {
			t.Errorf("parent joined at %v, want 15", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 15 {
		t.Fatalf("child ran at %v, want 15", childRan)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("link")
	b1, e1 := r.Use(0, 10)
	if b1 != 0 || e1 != 10 {
		t.Fatalf("first use [%v,%v), want [0,10)", b1, e1)
	}
	// Requested while busy: queued behind.
	b2, e2 := r.Use(5, 10)
	if b2 != 10 || e2 != 20 {
		t.Fatalf("second use [%v,%v), want [10,20)", b2, e2)
	}
	// Requested after idle gap: starts immediately.
	b3, e3 := r.Use(50, 10)
	if b3 != 50 || e3 != 60 {
		t.Fatalf("third use [%v,%v), want [50,60)", b3, e3)
	}
	r.Reset()
	if r.FreeAt() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds should differ")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(42)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	total := 0
	for i := 0; i < 64; i++ {
		i := i
		e.Spawn("core", func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Wait(Time(1 + (i+j)%7))
			}
			total++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 64 {
		t.Fatalf("finished %d procs, want 64", total)
	}
}

// runSchedule drives a small proc/cond/resource schedule on e and
// returns the completion times observed, for comparing a recycled
// engine against a fresh one.
func runSchedule(t *testing.T, e *Engine) []Time {
	t.Helper()
	var times []Time
	res := NewResource("shared")
	flag := NewCond(e, "flag")
	e.Spawn("waiter", func(p *Proc) {
		p.WaitCond(flag)
		times = append(times, p.Now())
	})
	e.Spawn("worker", func(p *Proc) {
		begin, end := res.Use(p.Now(), 40)
		_ = begin
		p.WaitUntil(end)
		flag.Broadcast()
		times = append(times, p.Now())
	})
	e.After(10, func() { times = append(times, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return times
}

func TestEngineResetReplaysIdentically(t *testing.T) {
	e := NewEngine()
	first := runSchedule(t, e)
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset of drained engine: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("Reset left Now at %v", e.Now())
	}
	second := runSchedule(t, e)
	if len(first) != len(second) {
		t.Fatalf("replay produced %d events, fresh produced %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d at %v on recycled engine, %v on fresh", i, second[i], first[i])
		}
	}
}

// TestEngineResetUnwindsParkedProcs: Reset unwinds what a Stopped or
// RunUntil-limited run left behind - a proc parked on a Cond, one
// waiting on a timer, one that never started, and a pending callback -
// and the recycled engine then replays a fresh one exactly.
func TestEngineResetUnwindsParkedProcs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never")
	var unwound []string
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = append(unwound, "parked") }()
		p.WaitCond(c)
	})
	e.Spawn("sleeper", func(p *Proc) {
		defer func() {
			unwound = append(unwound, "sleeper")
			p.Wait(1) // a park while unwinding unwinds again
			t.Error("sleeper parked while unwinding")
		}()
		p.Wait(1000)
	})
	late := e.SpawnAt(500, "late", func(p *Proc) { t.Error("late started") })
	e.At(700, func() { t.Error("pending callback ran after Reset") })
	e.At(1, func() { e.Stop() })
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if !slices.Equal(unwound, []string{"parked", "sleeper"}) {
		t.Fatalf("unwound %v, want [parked sleeper]", unwound)
	}
	if !late.Finished() {
		t.Error("a never-started proc is not finished after Reset")
	}
	if c.first != nil || len(c.waiters) != 0 {
		t.Errorf("Reset left waiters on the cond: first %v, %d more", c.first != nil, len(c.waiters))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if e.Now() != 0 || e.Stats().Events != 0 {
		t.Fatalf("Reset left work behind: now %v, %d events", e.Now(), e.Stats().Events)
	}
	if got, want := runSchedule(t, e), runSchedule(t, NewEngine()); !slices.Equal(got, want) {
		t.Fatalf("recycled engine ran %v, fresh %v", got, want)
	}

	// Reset from inside the run is refused.
	e = NewEngine()
	var inRun error
	e.At(1, func() { inRun = e.Reset() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inRun == nil {
		t.Fatal("Reset inside a run succeeded")
	}
}

func TestCondNames(t *testing.T) {
	e := NewEngine()
	if got := NewCond(e, "plain").Name(); got != "plain" {
		t.Errorf("NewCond name %q", got)
	}
	if got := NewCondIdx(e, "arrival:core", 7).Name(); got != "arrival:core7" {
		t.Errorf("NewCondIdx name %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewCondIdx accepted a negative index")
		}
	}()
	NewCondIdx(e, "bad", -1)
}
