package epiphany_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"epiphany"
	"epiphany/internal/sim"
)

// stuckKernels is a custom workload whose 64 kernels all park on a
// condition nobody signals, one of them panicking first when panics is
// set: a one-shot run of it fails with a deadlock or a panic.
type stuckKernels struct{ panics bool }

func (s stuckKernels) Name() string    { return "stuck-kernels" }
func (s stuckKernels) Validate() error { return nil }
func (s stuckKernels) Run(ctx context.Context, sys *epiphany.System) (epiphany.Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	w, err := sys.NewWorkgroup(0, 0, 8, 8)
	if err != nil {
		return nil, err
	}
	never := sim.NewCond(sys.Engine(), "never")
	sys.Host().Spawn("host", func(hp *epiphany.HostProc) {
		for _, p := range w.Launch("k", func(c *epiphany.Core, gr, gc int) {
			c.Idle(epiphany.Time(1 + gr*8 + gc))
			if s.panics && gr == 3 && gc == 5 {
				panic("kernel fault")
			}
			c.Proc().WaitCond(never)
		}) {
			hp.Sim().Join(p)
		}
	})
	return nil, sys.Engine().Run()
}

// TestLeakOneShotSystems pins that dropped one-shot Systems free their
// goroutines and their boards: a loop of deadlocked, panicked and
// successful one-shot runs returns runtime.NumGoroutine to its baseline
// once garbage is collected, and the live heap does not keep the
// boards.
func TestLeakOneShotSystems(t *testing.T) {
	ctx := context.Background()
	st := mustWorkload(t, "stencil-tuned")
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	if _, err := epiphany.Run(ctx, st); err != nil { // warm the package state
		t.Fatal(err)
	}
	heap0 := heapInuse()
	base := runtime.NumGoroutine()
	for range 4 {
		for _, c := range []struct {
			w    epiphany.Workload
			want string
		}{
			{stuckKernels{}, "sim: deadlock at t="},
			{stuckKernels{panics: true}, `sim: proc "k(3,5)" panicked at t=`},
			{st, ""},
		} {
			_, err := epiphany.Run(ctx, c.w)
			switch {
			case c.want == "" && err != nil:
				t.Fatal(err)
			case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want) || strings.Contains(err.Error(), "\n")):
				t.Fatalf("one-shot run failed with %q, want one line starting %q", err, c.want)
			}
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 12 dropped one-shot Systems, %d before", n, base)
	}
	// Eight failed e64 boards, had they leaked, would hold over 19 MB.
	if grown := int64(heapInuse()) - int64(heap0); grown > 8<<20 {
		t.Fatalf("live heap grew %d bytes over 12 dropped one-shot Systems", grown)
	}
}
