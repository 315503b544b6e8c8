package workload

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// failing launches a kernel on every core of an 8x8 group and joins
// them from the host, then fails the run one way: "deadlock" parks
// every kernel on a condition nobody signals, "panic" has one kernel
// panic while the rest are parked, and "stop" Stops the engine so the
// run ends without error with every kernel still parked.
type failing struct {
	mode string
	seen *[]*system.System
}

func (f *failing) Name() string    { return "failing-" + f.mode }
func (f *failing) Validate() error { return nil }
func (f *failing) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	*f.seen = append(*f.seen, sys)
	w, err := sys.NewWorkgroup(0, 0, 8, 8)
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	never := sim.NewCond(eng, "never")
	sys.Host().Spawn("host", func(hp *host.Proc) {
		procs := w.Launch("k", func(c *ecore.Core, gr, gc int) {
			c.Idle(sim.Time(1 + gr*8 + gc))
			switch {
			case f.mode == "panic" && gr == 7 && gc == 7:
				panic("kernel fault")
			case f.mode == "stop" && gr == 7 && gc == 7:
				eng.Stop()
			}
			c.Proc().WaitCond(never)
		})
		for _, p := range procs {
			hp.Sim().Join(p)
		}
	})
	return fixedResult{}, eng.Run()
}

// settleGoroutines waits until at most base goroutines remain,
// collecting garbage as it polls: a dropped board's idle coroutines
// stop once a collection finds its engine unreachable.
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
			t.Fatalf("%d goroutines remain, want at most %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunnerTeardownRecyclesFailedBoards: after a deadlocked, a
// panicked and a Stopped run with kernels still parked, the Runner
// recycles the board, the next job on it reproduces a fresh board's
// Metrics exactly, and once the Runner is dropped no goroutine is left.
func TestRunnerTeardownRecyclesFailedBoards(t *testing.T) {
	ctx := context.Background()
	st, ok := ByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned not registered")
	}
	fresh, err := Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ mode, err string }{
		{"deadlock", "sim: deadlock at t="},
		{"panic", `sim: proc "k(7,7)" panicked at t=`},
		{"stop", ""},
	} {
		t.Run(c.mode, func(t *testing.T) {
			runtime.GC()
			base := runtime.NumGoroutine()
			func() {
				var seen []*system.System
				r := &Runner{Workers: 1}
				jr := r.RunJob(ctx, Job{Workload: &failing{mode: c.mode, seen: &seen}})
				switch {
				case c.err == "" && jr.Err != nil:
					t.Fatalf("stopped run: %v", jr.Err)
				case c.err != "" && (jr.Err == nil || !strings.HasPrefix(jr.Err.Error(), c.err)):
					t.Fatalf("failed run reported %v, want %q...", jr.Err, c.err)
				case jr.Err != nil && strings.Contains(jr.Err.Error(), "\n"):
					t.Fatalf("run error spans lines: %q", jr.Err)
				}
				var pe *sim.PanicError
				if c.mode == "panic" && (!errors.As(jr.Err, &pe) || len(pe.Stack) == 0) {
					t.Fatalf("panicked run reported %#v, want a *sim.PanicError with its stack", jr.Err)
				}
				jr = r.RunJob(ctx, Job{Workload: &sysRecorder{name: "after", seen: &seen, inner: st}})
				if jr.Err != nil {
					t.Fatal(jr.Err)
				}
				if seen[0] != seen[1] {
					t.Fatal("the failed board was not recycled")
				}
				if got, want := jr.Result.Metrics(), fresh.Metrics(); got != want {
					t.Fatalf("job after a failed run drifted:\n got  %+v\n want %+v", got, want)
				}
			}()
			settleGoroutines(t, base)
		})
	}
}

// TestRunnerTeardownBoard1024Deadlock is the board-level deadlock
// fixture: a 4x25 Comm stencil on the 1024-core grid deadlocks (its
// group runs past the shared DRAM window's shadow). The Runner recycles
// the board, and a full-board stencil on it matches a fresh board.
func TestRunnerTeardownBoard1024Deadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-core board")
	}
	ctx := context.Background()
	topo, err := system.ParseTopologySpec("grid=4x4/chip=8x8")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(spec string) Workload {
		w, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	stuck := parse("stencil-tuned/rows=20/iters=1/group=4x25/comm=true")
	good := parse("stencil-tuned/rows=20/iters=1/group=32x24/comm=true")
	fresh, err := Run(ctx, good, WithTopology(topo))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	func() {
		var seen []*system.System
		r := &Runner{Workers: 1, Options: []Option{WithTopology(topo)}}
		jr := r.RunJob(ctx, Job{Workload: &sysRecorder{name: "stuck", seen: &seen, inner: stuck}})
		if jr.Err == nil || !strings.Contains(jr.Err.Error(), "deadlock") {
			t.Fatalf("fixture reported %v, want a deadlock", jr.Err)
		}
		jr = r.RunJob(ctx, Job{Workload: &sysRecorder{name: "good", seen: &seen, inner: good}})
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if seen[0] != seen[1] {
			t.Fatal("the deadlocked board was not recycled")
		}
		if got, want := jr.Result.Metrics(), fresh.Metrics(); got != want {
			t.Fatalf("job after the deadlock drifted:\n got  %+v\n want %+v", got, want)
		}
	}()
	settleGoroutines(t, base)
}
