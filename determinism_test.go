package epiphany_test

// The cross-mode determinism suite: every board runs one event heap in
// (time, seq) order, and the deprecated WithWorkers shim does nothing.
// Every registered workload, on a single chip, the 2x2 cluster, and an
// asymmetric 2x4 grid, must produce bit-identical Metrics - time-domain
// AND energy - for every WithWorkers value, on fresh and on recycled
// pooled boards. The removed /shards= spec suffix must fail loudly.
// CI also runs it under -race with GOMAXPROCS=4, alongside Runner's
// concurrent jobs.
//
// The comparison is plain struct equality on epiphany.Metrics: every
// field is an integer or a float64 compared by bits, so "identical"
// here means identical down to float rounding, not approximately equal.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"epiphany"
	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// determinismTopos are the boards the suite sweeps: one chip, the
// 4-chip cluster preset, and an 8-chip asymmetric grid.
var determinismTopos = []string{"e64", "cluster-2x2", "grid=2x4/chip=8x8"}

// runDeterminism executes w on topo with the given worker count, with
// the energy model attached so the energy fields are part of the
// comparison.
func runDeterminism(t *testing.T, w epiphany.Workload, topo epiphany.Topology, workers int) epiphany.Metrics {
	t.Helper()
	res, err := epiphany.Run(context.Background(), w,
		epiphany.WithTopology(topo),
		epiphany.WithPowerModel("epiphany-iv-28nm", ""),
		epiphany.WithWorkers(workers),
	)
	if err != nil {
		t.Fatalf("%s on %s workers=%d: %v", w.Name(), topo, workers, err)
	}
	return res.Metrics()
}

// TestDeterminismAcrossShardsAndWorkers is the suite's core claim:
// for every (topology, workload), the Metrics of every WithWorkers
// value equal the WithWorkers(1) run's bit for bit. (The name predates
// the removal of the shard partition, whose axis it swept too.)
func TestDeterminismAcrossShardsAndWorkers(t *testing.T) {
	for _, spec := range determinismTopos {
		topo, err := epiphany.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec, func(t *testing.T) {
			for _, w := range epiphany.Workloads() {
				w := w
				t.Run(w.Name(), func(t *testing.T) {
					base := runDeterminism(t, w, topo, 1)
					if got := runDeterminism(t, w, topo, 4); got != base {
						t.Errorf("workers=4 diverged from workers=1:\n got  %+v\n want %+v", got, base)
					}
				})
			}
		})
	}
}

// TestDeterminismOffChipMatmulProduct pins the fixed schemeDouble
// off-chip rotation on a multi-chip board: for per-core tile edges 8,
// 16 and 24 on the 4-chip cluster's 8x8 group, the gathered product
// must be bit-identical to the host reference - not merely
// deterministic - and the Metrics struct-equal, for workers {1, 4}. Under
// -race (CI runs this file's tests with GOMAXPROCS=4) this is the
// strongest witness that the send-credit handshake, not scheduling
// luck, is what orders the buffer overwrites.
func TestDeterminismOffChipMatmulProduct(t *testing.T) {
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ edge, m int }{
		{8, 128},  // 64-wide DRAM tiles, Q=2 multi-pass paging
		{16, 128}, // the preset's shape
		{24, 192}, // larger-than-default tiles
	} {
		t.Run(fmt.Sprintf("edge%d", tc.edge), func(t *testing.T) {
			cfg := epiphany.MatmulConfig{
				M: tc.m, N: tc.m, K: tc.m, G: 8,
				OffChip: true, OffChipEdge: tc.edge,
				Tuned: true, Verify: true, Seed: 3,
			}
			ref := epiphany.MatmulReference(cfg)
			var base epiphany.Metrics
			for _, workers := range []int{1, 4} {
				res, err := epiphany.Run(context.Background(),
					&epiphany.MatmulWorkload{Config: cfg},
					epiphany.WithTopology(topo),
					epiphany.WithPowerModel("epiphany-iv-28nm", ""),
					epiphany.WithWorkers(workers),
				)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				// The power model decorates the result; peel it to
				// reach the gathered product.
				inner := res
				for {
					u, ok := inner.(interface{ Unwrap() epiphany.Result })
					if !ok {
						break
					}
					inner = u.Unwrap()
				}
				mm, ok := inner.(*epiphany.MatmulResult)
				if !ok {
					t.Fatalf("result is %T, want *epiphany.MatmulResult", inner)
				}
				if d := epiphany.MaxAbsDiff(mm.C, ref); d != 0 {
					t.Errorf("workers=%d: product differs from host reference by %g", workers, d)
				}
				if workers == 1 {
					base = res.Metrics()
				} else if got := res.Metrics(); got != base {
					t.Errorf("workers=%d: Metrics diverged from workers=1:\n got  %+v\n want %+v",
						workers, got, base)
				}
			}
		})
	}
}

// TestDeterminismShardSpecSuffix: the /shards= suffix named an engine
// partition that no longer exists, so every spelling that carries it -
// on a preset, a grid, behind a c2c override - is refused with the
// error naming the removal, by ParseTopology and by a sweep plan,
// rather than quietly running some other board.
func TestDeterminismShardSpecSuffix(t *testing.T) {
	const want = "the /shards= engine partition was removed; every board runs one event heap"
	specs := []string{"cluster-2x2/shards=1", "cluster-2x2/shards=4", "e64/shards=1",
		"grid=4x4/chip=8x8/shards=16", "cluster-2x2/c2c=40:600/shards=2", "e64x16/shards=x"}
	for _, spec := range specs {
		if _, err := epiphany.ParseTopology(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseTopology(%q) = %v, want an error containing %q", spec, err, want)
		}
	}
	plan := epiphany.SweepPlan{Workloads: []string{"stencil-tuned"}, Topos: []string{"e16", specs[0]}}
	if _, err := epiphany.Sweep(context.Background(), plan, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Sweep over %q = %v, want an error containing %q", specs[0], err, want)
	}
}

// TestDeterminismRecycledShardedBoards runs a mixed batch on the 4-chip
// cluster through one Runner twice, so later jobs land on recycled
// pooled boards: each job must reproduce the bits of a fresh board.
// (The name predates the removal of the shard partition; the boards
// were sharded once.)
func TestDeterminismRecycledShardedBoards(t *testing.T) {
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"matmul-cannon", "stream-stencil", "stencil-tuned"}
	want := map[string]epiphany.Metrics{}
	for _, name := range names {
		want[name] = runDeterminism(t, mustWorkload(t, name), topo, 1)
	}

	r := &epiphany.Runner{Workers: 2}
	var jobs []epiphany.Job
	var order []string
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			jobs = append(jobs, epiphany.Job{
				Workload: mustWorkload(t, name),
				Options: []epiphany.Option{
					epiphany.WithTopology(topo),
					epiphany.WithPowerModel("epiphany-iv-28nm", ""),
					epiphany.WithWorkers(2),
				},
			})
			order = append(order, name)
		}
	}
	br, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range br.Results {
		if jr.Err != nil {
			t.Fatalf("job %d (%s): %v", i, order[i], jr.Err)
		}
		if got := jr.Result.Metrics(); got != want[order[i]] {
			t.Errorf("job %d (%s) on a pooled board diverged from a fresh run", i, order[i])
		}
	}
}

// remotePull is what one run of TestDeterminismRemoteDMAPull observes.
type remotePull struct {
	done      [4]sim.Time // (0,0)'s chain, its flag, (0,4)'s and (1,2)'s pushes
	data      []byte      // (0,0)'s pulled bytes, then the two pushed blocks
	crossings uint64
	crossTime sim.Time
}

// runRemotePull drives raw DMA on sys, a cluster-2x2 board (four 4x4
// chips): core (0,0) on chip 0 runs a chained pull from (0,4) on chip 1
// and then from (5,5) on chip 3, while (0,4) pushes into chip 0 and
// then stores a flag to (0,0), and (1,2) pushes across to chip 3.
func runRemotePull(t *testing.T, sys *epiphany.System) remotePull {
	t.Helper()
	chip := sys.Chip()
	const (
		src, dst, flag mem.Addr = 0x2000, 0x4000, 0x7000
		n                       = 256
	)
	for i, rc := range [][2]int{{0, 4}, {5, 5}, {1, 2}} {
		sram := chip.Core(chip.Map().CoreIndex(rc[0], rc[1])).Local()
		for w := mem.Addr(0); w < n; w += 4 {
			sram.Store32(src+w, uint32(i+1)<<24|uint32(w))
		}
	}
	var out remotePull
	push := func(c *ecore.Core, row, col int) {
		c.DMAStart(dma.DMA0, c.DMASetDesc(dma.Desc1D(c.Global(src), c.GlobalOn(row, col, dst), n, 8)))
		c.DMAWait(dma.DMA0)
	}
	chip.Launch(chip.Map().CoreIndex(0, 0), "puller", func(c *ecore.Core) {
		second := dma.Desc1D(c.GlobalOn(5, 5, src), c.Global(dst+n), n, 8)
		first := dma.Desc1D(c.GlobalOn(0, 4, src), c.Global(dst), n, 8)
		first.Chain = second
		c.DMAStart(dma.DMA0, c.DMASetDesc(first))
		c.DMAWait(dma.DMA0)
		out.done[0] = c.Now()
		c.WaitLocal32GE(flag, 1)
		out.done[1] = c.Now()
	})
	chip.Launch(chip.Map().CoreIndex(0, 4), "pusher", func(c *ecore.Core) {
		push(c, 1, 1)
		c.StoreGlobal32(c.GlobalOn(0, 0, flag), 1)
		out.done[2] = c.Now()
	})
	chip.Launch(chip.Map().CoreIndex(1, 2), "crosser", func(c *ecore.Core) {
		push(c, 6, 6)
		out.done[3] = c.Now()
	})
	if err := sys.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for _, rc := range [][2]int{{0, 0}, {1, 1}, {6, 6}} {
		size := n // one pushed block
		if rc == [2]int{0, 0} {
			size = 2 * n // both pulled blocks
		}
		b := make([]byte, size)
		chip.Core(chip.Map().CoreIndex(rc[0], rc[1])).Local().Read(dst, b)
		out.data = append(out.data, b...)
	}
	mesh := chip.Fabric().Mesh
	out.crossings, out.crossTime = mesh.Crossings(), mesh.CrossTime()
	return out
}

// TestDeterminismRemoteDMAPull: a DMA pull from a core on another chip
// crosses the chip-to-chip links like a push does, and lands the same
// bytes at the same times on a fresh board and on the same board after
// Reset. The run mixes two chained remote pulls with an on-chip push, a
// cross-chip push and a cross-chip flag store.
func TestDeterminismRemoteDMAPull(t *testing.T) {
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	sys := epiphany.NewSystemTopology(topo)
	base := runRemotePull(t, sys)
	var want []byte
	for _, block := range []int{1, 2, 1, 3} { // (0,0) pulls 1 then 2; (1,1) gets 1, (6,6) gets 3
		for w := 0; w < 256; w += 4 {
			want = append(want, byte(w), byte(w>>8), 0, byte(block))
		}
	}
	if !bytes.Equal(base.data, want) {
		t.Fatalf("the run moved the wrong bytes:\n got  %x\n want %x", base.data, want)
	}
	if base.crossings == 0 {
		t.Fatal("no chip-boundary crossings recorded")
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	got := runRemotePull(t, sys)
	if got.done != base.done || got.crossings != base.crossings || got.crossTime != base.crossTime {
		t.Errorf("after Reset: completions %v, %d crossings in %v; fresh %v, %d crossings in %v",
			got.done, got.crossings, got.crossTime, base.done, base.crossings, base.crossTime)
	}
	if !bytes.Equal(got.data, base.data) {
		t.Errorf("after Reset: moved bytes differ from the fresh run")
	}
	t.Logf("completions %v, %d crossings in %v", base.done, base.crossings, base.crossTime)
}

// TestDeterminismBoard1024 runs the 1024-core board (a 4x4 grid of 8x8
// chips): matmul-offchip, stream-stencil and the chip-parallel 32x24
// Comm stencil over four iterations, each on fresh boards at
// WithWorkers {1, 4} and twice through one Runner, whose second run
// lands on the pooled board the first one recycled. Every run must
// match its host reference bit for bit, every run of a workload must
// produce the same Metrics and EngineStats, and no fresh run may leave
// a goroutine behind (the engine starts no scheduler goroutines, and
// the dropped board's pooled coroutines stop once it is collected).
func TestDeterminismBoard1024(t *testing.T) {
	topo, err := epiphany.ParseTopology("grid=4x4/chip=8x8")
	if err != nil {
		t.Fatal(err)
	}
	stencil := &epiphany.StencilWorkload{Config: epiphany.StencilConfig{
		Rows: 20, Cols: 20, Iters: 4, GroupRows: 32, GroupCols: 24,
		Comm: true, Tuned: true, Seed: 1,
	}}
	for _, tc := range []struct {
		name string
		w    epiphany.Workload
	}{
		{"matmul-offchip", mustWorkload(t, "matmul-offchip")},
		{"stream-stencil", mustWorkload(t, "stream-stencil")},
		{"stencil-comm-32x24", stencil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				base  epiphany.Metrics
				stats epiphany.EngineStats
				seen  bool
			)
			check := func(label string, res epiphany.Result) {
				t.Helper()
				hostCheck(t, label, tc.w, topo, res)
				m := res.Metrics()
				st := *m.Engine
				m.Engine = nil
				if !seen {
					base, stats, seen = m, st, true
					return
				}
				if m != base {
					t.Errorf("%s: Metrics diverged:\n got  %+v\n want %+v", label, m, base)
				}
				if st != stats {
					t.Errorf("%s: EngineStats diverged: %+v, want %+v", label, st, stats)
				}
			}
			for _, workers := range []int{1, 4} {
				before := runtime.NumGoroutine()
				res, err := epiphany.Run(context.Background(), tc.w,
					epiphany.WithTopology(topo),
					epiphany.WithWorkers(workers),
					epiphany.WithEngineStats())
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if after := settledGoroutines(before); after > before {
					t.Errorf("workers=%d: %d goroutines after the run, %d before", workers, after, before)
				}
				check(fmt.Sprintf("fresh board, workers=%d", workers), res)
			}
			r := &epiphany.Runner{Workers: 1, Options: []epiphany.Option{
				epiphany.WithTopology(topo), epiphany.WithEngineStats()}}
			for run := range 2 {
				jr := r.RunJob(context.Background(), epiphany.Job{Workload: tc.w})
				if jr.Err != nil {
					t.Fatalf("runner run %d: %v", run, jr.Err)
				}
				check(fmt.Sprintf("runner run %d", run), jr.Result)
			}
		})
	}
}

// hostCheck compares a built-in workload's gathered output with its
// host reference, computed for the configuration the run used (the
// workload fitted to topo), and requires bit equality.
func hostCheck(t *testing.T, label string, w epiphany.Workload, topo epiphany.Topology, res epiphany.Result) {
	t.Helper()
	if f, ok := w.(epiphany.TopologyFitter); ok {
		w = f.FitTopology(topo.Rows(), topo.Cols())
	}
	for {
		u, ok := res.(interface{ Unwrap() epiphany.Result })
		if !ok {
			break
		}
		res = u.Unwrap()
	}
	var got, want [][]float32
	switch w := w.(type) {
	case *epiphany.StencilWorkload:
		got, want = res.(*epiphany.StencilResult).Global, epiphany.StencilReference(w.Config)
	case *epiphany.StreamStencilWorkload:
		got, want = res.(*epiphany.StreamStencilResult).Global, epiphany.StreamStencilReference(w.Config)
	case *epiphany.MatmulWorkload:
		got, want = [][]float32{res.(*epiphany.MatmulResult).C}, [][]float32{epiphany.MatmulReference(w.Config)}
	default:
		t.Fatalf("%s: no host reference for %T", label, w)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d output rows, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if d := epiphany.MaxAbsDiff(got[i], want[i]); d != 0 || len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d differs from the host reference (max |diff| %g)", label, i, d)
		}
	}
}

// mustWorkload looks up a registered workload.
func mustWorkload(t *testing.T, name string) epiphany.Workload {
	t.Helper()
	w, ok := epiphany.WorkloadByName(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return w
}

// settledGoroutines returns the goroutine count once it drops to want
// or five seconds pass, collecting garbage as it polls: a dropped
// board's idle coroutines stop only after a collection finds its
// engine unreachable, and the cleanup that stops them runs
// asynchronously.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	runtime.GC()
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		runtime.GC()
		n = runtime.NumGoroutine()
	}
	return n
}
