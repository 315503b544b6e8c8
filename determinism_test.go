package epiphany_test

// The cross-mode determinism suite: the shard partition
// (Topology.WithShards, the /shards= spec suffix) is an execution knob,
// never semantics, and the deprecated WithWorkers shim does nothing.
// Every registered workload, on a single chip, the 2x2 cluster, and an
// asymmetric 2x4 grid, must produce bit-identical Metrics - time-domain
// AND energy - for every shard count from the classic single heap up to
// one shard per chip, and for every WithWorkers value. CI also runs it
// under -race with GOMAXPROCS=4, alongside Runner's concurrent jobs.
//
// The comparison is plain struct equality on epiphany.Metrics: every
// field is an integer or a float64 compared by bits, so "identical"
// here means identical down to float rounding, not approximately equal.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"epiphany"
	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// determinismTopos are the boards the suite sweeps: one chip (sharding
// degenerates to the classic heap), the 4-chip cluster preset, and an
// 8-chip asymmetric grid where chip grouping (shards strictly between 1
// and NumChips) puts several chips on one shard.
var determinismTopos = []string{"e64", "cluster-2x2", "grid=2x4/chip=8x8"}

// shardCounts returns the distinct shard counts worth testing on a
// board of n chips: the classic heap, a grouped partition, and the full
// one-shard-per-chip layout.
func shardCounts(n int) []int {
	var out []int
	for _, s := range []int{1, 2, 4, n} {
		if s > n {
			continue
		}
		dup := false
		for _, seen := range out {
			dup = dup || seen == s
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// runDeterminism executes w on topo - whose Shards field sets the
// engine partition - with the given worker count, with the energy
// model attached so the energy fields are part of the comparison.
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
// for every (topology, workload), the Metrics of every (shards,
// workers) combination equal the classic sequential engine's
// (shards=1, workers=1) bit for bit.
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
					base := runDeterminism(t, w, topo.WithShards(1), 1)
					for _, shards := range shardCounts(topo.NumChips()) {
						for _, workers := range []int{1, 4} {
							if shards == 1 && workers == 1 {
								continue
							}
							got := runDeterminism(t, w, topo.WithShards(shards), workers)
							if got != base {
								t.Errorf("shards=%d workers=%d diverged from the sequential engine:\n got  %+v\n want %+v",
									shards, workers, got, base)
							}
						}
					}
				})
			}
		})
	}
}

// TestDeterminismOffChipMatmulProduct pins the fixed schemeDouble
// off-chip rotation against the sharded engine: for per-core tile
// edges 8, 16 and 24 on the 4-chip cluster's 8x8 group, the gathered
// product must be bit-identical to the host reference - not merely
// deterministic - and the Metrics struct-equal, across every
// combination of shards {1, one per chip} and workers {1, 4}. Under
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
			first := true
			for _, shards := range []int{1, topo.NumChips()} {
				for _, workers := range []int{1, 4} {
					res, err := epiphany.Run(context.Background(),
						&epiphany.MatmulWorkload{Config: cfg},
						epiphany.WithTopology(topo.WithShards(shards)),
						epiphany.WithPowerModel("epiphany-iv-28nm", ""),
						epiphany.WithWorkers(workers),
					)
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
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
						t.Errorf("shards=%d workers=%d: product differs from host reference by %g", shards, workers, d)
					}
					if first {
						base, first = res.Metrics(), false
					} else if got := res.Metrics(); got != base {
						t.Errorf("shards=%d workers=%d: Metrics diverged from the sequential engine:\n got  %+v\n want %+v",
							shards, workers, got, base)
					}
				}
			}
		})
	}
}

// TestDeterminismShardSpecSuffix pins that the /shards= grammar suffix
// is the same axis as Topology.WithShards: a topology parsed with the
// suffix equals the Go form, produces the same bits, and round-trips
// through Spec.
func TestDeterminismShardSpecSuffix(t *testing.T) {
	w, ok := epiphany.WorkloadByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned not registered")
	}
	for _, shards := range []int{1, 2, 4} {
		spec := fmt.Sprintf("cluster-2x2/shards=%d", shards)
		pinned, err := epiphany.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		if pinned.Spec() != spec {
			t.Errorf("Spec round-trip: parsed %q, rendered %q", spec, pinned.Spec())
		}
		goForm := epiphany.TopologyCluster2x2.WithShards(shards)
		if pinned != goForm {
			t.Errorf("topology %q parsed to %+v, want %+v", spec, pinned, goForm)
		}
		if runDeterminism(t, w, pinned, 1) != runDeterminism(t, w, goForm, 1) {
			t.Errorf("topology %q diverged from TopologyCluster2x2.WithShards(%d)", spec, shards)
		}
	}
}

// TestDeterminismRecycledShardedBoards runs a mixed-shard batch through
// one Runner twice, so later jobs land on recycled pooled boards. The
// pool keys boards by the whole Topology - shard partition included -
// so a recycled board must still carry its layout and reproduce the
// same bits as a fresh one.
func TestDeterminismRecycledShardedBoards(t *testing.T) {
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := epiphany.WorkloadByName("matmul-cannon")
	if !ok {
		t.Fatal("matmul-cannon not registered")
	}
	want := map[int]epiphany.Metrics{}
	for _, shards := range []int{1, 2, 4} {
		want[shards] = runDeterminism(t, w, topo.WithShards(shards), 1)
	}

	r := &epiphany.Runner{Workers: 2}
	var jobs []epiphany.Job
	var order []int
	for pass := 0; pass < 2; pass++ {
		for _, shards := range []int{1, 2, 4} {
			jobs = append(jobs, epiphany.Job{
				Workload: w,
				Options: []epiphany.Option{
					epiphany.WithTopology(topo.WithShards(shards)),
					epiphany.WithPowerModel("epiphany-iv-28nm", ""),
					epiphany.WithWorkers(2),
				},
			})
			order = append(order, shards)
		}
	}
	br, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range br.Results {
		if jr.Err != nil {
			t.Fatalf("job %d (shards=%d): %v", i, order[i], jr.Err)
		}
		if got := jr.Result.Metrics(); got != want[order[i]] {
			t.Errorf("job %d (shards=%d) on a pooled board diverged from a fresh run", i, order[i])
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

// runRemotePull drives raw DMA on cluster-2x2 (four 4x4 chips): core
// (0,0) on chip 0 runs a chained pull from (0,4) on chip 1 and then
// from (5,5) on chip 3, while (0,4) pushes into chip 0 and then stores
// a flag to (0,0), and (1,2) pushes across to chip 3.
func runRemotePull(t *testing.T, shards, workers int) remotePull {
	t.Helper()
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	sys := epiphany.NewSystemTopology(topo.WithShards(shards))
	sys.SetWorkers(workers)
	chip := sys.Chip()
	const (
		src, dst, flag mem.Addr = 0x2000, 0x4000, 0x7000
		n                       = 256
	)
	for i, rc := range [][2]int{{0, 4}, {5, 5}, {1, 2}} {
		sram := chip.CoreAt(rc[0], rc[1]).Local()
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
		t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
	}
	for _, rc := range [][2]int{{0, 0}, {1, 1}, {6, 6}} {
		size := n // one pushed block
		if rc == [2]int{0, 0} {
			size = 2 * n // both pulled blocks
		}
		out.data = append(out.data, chip.CoreAt(rc[0], rc[1]).Local().Bytes(dst, size)...)
	}
	mesh := chip.Fabric().Mesh
	out.crossings, out.crossTime = mesh.Crossings(), mesh.CrossTime()
	return out
}

// TestDeterminismRemoteDMAPull: a DMA pull from a core on another chip
// is a sys leg like any cross-chip push, so it runs on every partition
// and lands the same bytes at the same times on every one. The run
// mixes two chained remote pulls with an on-chip push, a cross-chip
// push and a cross-chip flag store, and compares every (shards,
// workers) layout with the classic sequential heap.
func TestDeterminismRemoteDMAPull(t *testing.T) {
	base := runRemotePull(t, 1, 1)
	var want []byte
	for _, block := range []int{1, 2, 1, 3} { // (0,0) pulls 1 then 2; (1,1) gets 1, (6,6) gets 3
		for w := 0; w < 256; w += 4 {
			want = append(want, byte(w), byte(w>>8), 0, byte(block))
		}
	}
	if !bytes.Equal(base.data, want) {
		t.Fatalf("sequential run moved the wrong bytes:\n got  %x\n want %x", base.data, want)
	}
	if base.crossings == 0 {
		t.Fatal("no chip-boundary crossings recorded")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			got := runRemotePull(t, shards, workers)
			if got.done != base.done || got.crossings != base.crossings || got.crossTime != base.crossTime {
				t.Errorf("shards=%d workers=%d: completions %v, %d crossings in %v; sequential %v, %d crossings in %v",
					shards, workers, got.done, got.crossings, got.crossTime, base.done, base.crossings, base.crossTime)
			}
			if !bytes.Equal(got.data, base.data) {
				t.Errorf("shards=%d workers=%d: moved bytes differ from the sequential run", shards, workers)
			}
		}
	}
	t.Logf("completions %v, %d crossings in %v", base.done, base.crossings, base.crossTime)
}

// TestDeterminismBoard1024 runs the 1024-core board (a 4x4 grid of 8x8
// chips) through the sharded merge: matmul-offchip, stream-stencil and
// the chip-parallel 32x24 Comm stencil (one iteration), each at shards
// {1, one per chip} and WithWorkers {1, 4}. Every run of a workload must
// produce the same Metrics, every run of a partition the same
// EngineStats, and no run may leave a goroutine behind (the engine
// starts no scheduler goroutines, and a finished proc's coroutine
// exits). The stencil runs one iteration only: from the second on, its
// ELinkCrossTime differs between the single heap and one shard per chip
// (ROADMAP item 1(a)), so multi-iteration stencils wait for that fix.
func TestDeterminismBoard1024(t *testing.T) {
	topo, err := epiphany.ParseTopology("grid=4x4/chip=8x8")
	if err != nil {
		t.Fatal(err)
	}
	stencil := &epiphany.StencilWorkload{Config: epiphany.StencilConfig{
		Rows: 20, Cols: 20, Iters: 1, GroupRows: 32, GroupCols: 24,
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
			var base epiphany.Metrics
			for i, shards := range []int{1, topo.NumChips()} {
				var stats *epiphany.EngineStats
				for j, workers := range []int{1, 4} {
					before := runtime.NumGoroutine()
					res, err := epiphany.Run(context.Background(), tc.w,
						epiphany.WithTopology(topo.WithShards(shards)),
						epiphany.WithWorkers(workers),
						epiphany.WithEngineStats())
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
					}
					if after := settledGoroutines(before); after > before {
						t.Errorf("shards=%d workers=%d: %d goroutines after the run, %d before", shards, workers, after, before)
					}
					m := res.Metrics()
					st := m.Engine
					m.Engine = nil
					switch {
					case i == 0 && j == 0:
						base = m
					case m != base:
						t.Errorf("shards=%d workers=%d: Metrics diverged:\n got  %+v\n want %+v", shards, workers, m, base)
					}
					want := 1 // the single heap, or the sys shard beside the chip shards
					if shards > 1 {
						want = shards + 1
					}
					if st.Shards != want {
						t.Errorf("shards=%d: engine ran %d shards, want %d", shards, st.Shards, want)
					}
					if j == 0 {
						stats = st
					} else if !reflect.DeepEqual(st, stats) {
						t.Errorf("shards=%d workers=%d: EngineStats diverged:\n got  %+v\n want %+v", shards, workers, *st, *stats)
					}
				}
			}
		})
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
// or a second passes: a goroutine that has finished its work may still
// be on its way out when the run returns.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
