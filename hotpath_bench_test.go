package epiphany

import (
	"context"
	"io"
	"testing"
)

// BenchmarkRunBatch12 pushes every registered built-in workload through
// the batch Runner once per iteration - the ROADMAP's batch-serving hot
// path. Workers defaults to GOMAXPROCS; per-job System cost (build or
// recycle) is inside the measured loop on purpose.
//
// Since the energy subsystem landed, this benchmark runs with the
// activity counters accruing (they are unconditional - bare integer
// increments on the fabric hot paths); its before/after in BENCH_5.json
// is the counter-overhead proof for the time-domain path.
func BenchmarkRunBatch12(b *testing.B) {
	benchRunBatch12(b, nil)
}

// BenchmarkRunBatch12Energy is the energy-metered variant: the same
// batch with the power model attached, adding the per-job counter
// snapshot and derivation. The delta against BenchmarkRunBatch12 is the
// full cost of asking for energy; the acceptance bar is <= 2% ns/op
// with no extra allocations beyond the one decorated result per job.
func BenchmarkRunBatch12Energy(b *testing.B) {
	benchRunBatch12(b, []Option{WithPowerModel("epiphany-iv-28nm", "")})
}

// BenchmarkRunBatch12Timeline is the observability-tax variant: the
// same batch with a Timeline recording every core span, DMA leg and
// crossing into io.Discard. This prices the recorder hooks when armed;
// the nil-recorder cost (hooks present but disabled, the default every
// other benchmark pays) is budgeted at <= 1% against the BENCH_9
// baseline and read off BenchmarkRunBatch12 itself in BENCH_10.json.
func BenchmarkRunBatch12Timeline(b *testing.B) {
	benchRunBatch12(b, []Option{WithTimeline(io.Discard)})
}

// BenchmarkRunBatch12EngineStats adds the scheduler-counter snapshot to
// every job - one Stats() snapshot per run plus the decorated result,
// with the counters themselves accruing always.
func BenchmarkRunBatch12EngineStats(b *testing.B) {
	benchRunBatch12(b, []Option{WithEngineStats()})
}

func benchRunBatch12(b *testing.B, opts []Option) {
	ws := Workloads()
	if len(ws) < 12 {
		b.Fatalf("expected >= 12 registered workloads, have %d", len(ws))
	}
	r := &Runner{Options: opts}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := r.RunWorkloads(ctx, ws...)
		if err != nil {
			b.Fatal(err)
		}
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleJob measures one simulation's wall-clock latency on
// multi-chip boards: the 4-chip cluster and the 16-chip 1024-core grid.
func BenchmarkSingleJob(b *testing.B) {
	cases := []struct {
		name     string
		topo     string
		workload string
	}{
		{"Cluster2x2", "cluster-2x2", "matmul-offchip"},
		{"Grid1024", "grid=4x4/chip=8x8", "stencil-tuned"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			topo, err := ParseTopology(tc.topo)
			if err != nil {
				b.Fatal(err)
			}
			w, ok := WorkloadByName(tc.workload)
			if !ok {
				b.Fatalf("workload %q not registered", tc.workload)
			}
			// One pooled board per case, built and warmed before the
			// timer starts: Reset-recycled like the serve daemon's
			// boards, so construction cost stays out of the per-job
			// latency and allocs/op, even at -benchtime=1x.
			r := &Runner{Workers: 1, Options: []Option{WithTopology(topo)}}
			ctx := context.Background()
			if jr := r.RunJob(ctx, Job{Workload: w}); jr.Err != nil {
				b.Fatal(jr.Err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jr := r.RunJob(ctx, Job{Workload: w})
				if jr.Err != nil {
					b.Fatal(jr.Err)
				}
			}
		})
	}
}

// BenchmarkBoard1024 runs the three jobs of the 1024-core board (a 4x4
// grid of 8x8 chips): the chip-parallel 32x24 Comm
// stencil, matmul-offchip and stream-stencil, one RunJob each per
// iteration on a warm Runner whose pooled board is Reset between jobs.
// Besides time and allocs/op it reports the engine events each
// iteration executed (events/op), a count host noise cannot move; the
// engine-stats snapshot that supplies it adds a few allocations per job.
func BenchmarkBoard1024(b *testing.B) {
	topo, err := ParseTopology("grid=4x4/chip=8x8")
	if err != nil {
		b.Fatal(err)
	}
	jobs := []Job{{Workload: board1024Stencil}}
	for _, name := range []string{"matmul-offchip", "stream-stencil"} {
		w, ok := WorkloadByName(name)
		if !ok {
			b.Fatalf("workload %q not registered", name)
		}
		jobs = append(jobs, Job{Workload: w})
	}
	r := &Runner{Workers: 1, Options: []Option{WithTopology(topo), WithEngineStats()}}
	ctx := context.Background()
	run := func() (events uint64) {
		for _, j := range jobs {
			jr := r.RunJob(ctx, j)
			if jr.Err != nil {
				b.Fatal(jr.Err)
			}
			events += jr.Result.Metrics().Engine.Events
		}
		return events
	}
	run() // build and warm the pooled board
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += run()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
