package epiphany_test

// The cross-mode determinism suite: the shard partition
// (Topology.WithShards, the /shards= spec suffix) and the host
// goroutine count (WithWorkers)
// are execution knobs, never semantics. Every registered workload, on a
// single chip, the 2x2 cluster, and an asymmetric 2x4 grid, must
// produce bit-identical Metrics - time-domain AND energy - for every
// shard count from the classic single heap up to one shard per chip,
// and for every worker count. Run it under -race with GOMAXPROCS >= 4
// (CI does) and the parallel scheduler's barrier discipline is checked
// too, not just its answers.
//
// The comparison is plain struct equality on epiphany.Metrics: every
// field is an integer or a float64 compared by bits, so "identical"
// here means identical down to float rounding, not approximately equal.

import (
	"context"
	"fmt"
	"testing"

	"epiphany"
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
