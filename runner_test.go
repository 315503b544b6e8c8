package epiphany

import (
	"context"
	"strings"
	"testing"
)

// TestRunnerMatchesSequential batch-runs every registered workload (>= 8,
// spanning stencil, matmul and streaming scenarios) concurrently and
// checks each job's Metrics are byte-identical to a sequential run of
// the same workload: concurrency must not perturb determinism.
func TestRunnerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workload registry twice")
	}
	ws := Workloads()
	if len(ws) < 8 {
		t.Fatalf("registry has %d workloads, want >= 8", len(ws))
	}
	sequential := make(map[string]Metrics, len(ws))
	for _, w := range ws {
		res, err := Run(context.Background(), w)
		if err != nil {
			t.Fatalf("sequential %q: %v", w.Name(), err)
		}
		sequential[w.Name()] = res.Metrics()
	}

	batch, err := (&Runner{Workers: 8}).RunWorkloads(context.Background(), ws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(ws) {
		t.Fatalf("%d results for %d jobs", len(batch.Results), len(ws))
	}
	for i, jr := range batch.Results {
		if jr.Err != nil {
			t.Errorf("job %q failed: %v", jr.Name, jr.Err)
			continue
		}
		if jr.Name != ws[i].Name() {
			t.Errorf("result %d is %q, want %q (submission order lost)", i, jr.Name, ws[i].Name())
		}
		if got, want := jr.Result.Metrics(), sequential[jr.Name]; got != want {
			t.Errorf("%q: concurrent metrics %+v != sequential %+v", jr.Name, got, want)
		}
	}
}

// TestRunnerDeterministicTwins runs the same seeded workload twice in
// one concurrent batch; both copies must report byte-identical Metrics.
func TestRunnerDeterministicTwins(t *testing.T) {
	w, ok := WorkloadByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned missing")
	}
	batch, err := (&Runner{Workers: 2}).RunWorkloads(context.Background(), w, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	a := batch.Results[0].Result.Metrics()
	b := batch.Results[1].Result.Metrics()
	if a != b {
		t.Fatalf("twin runs diverge: %+v vs %+v", a, b)
	}
	if a.Elapsed == 0 || a.GFLOPS <= 0 {
		t.Fatalf("degenerate metrics: %+v", a)
	}
}

// TestRunnerCapturesPerJobErrors mixes bad jobs into a batch: failures
// must be captured per job without aborting the rest.
func TestRunnerCapturesPerJobErrors(t *testing.T) {
	good, _ := WorkloadByName("stencil-single")
	bad := &StencilWorkload{Label: "bad", Config: StencilConfig{Rows: -1}}
	batch, err := (&Runner{Workers: 3}).RunBatch(context.Background(), []Job{
		{Workload: good},
		{Workload: bad},
		{Workload: nil},
		{Workload: good},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Err != nil || batch.Results[3].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", batch.Results[0].Err, batch.Results[3].Err)
	}
	if batch.Results[1].Err == nil {
		t.Fatal("invalid config must fail its job")
	}
	if batch.Results[2].Err == nil {
		t.Fatal("nil workload must fail its job")
	}
	if len(batch.Failed()) != 2 {
		t.Fatalf("Failed() = %d jobs, want 2", len(batch.Failed()))
	}
	if be := batch.Err(); be == nil || !strings.Contains(be.Error(), "2 of 4") {
		t.Fatalf("batch error should summarise 2 of 4 failures, got: %v", be)
	}
}

// TestRunnerContextCancellation: a cancelled context stops the batch;
// jobs that never started report the context error.
func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, _ := WorkloadByName("stencil-single")
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Workload: w}
	}
	batch, err := (&Runner{Workers: 2}).RunBatch(ctx, jobs)
	if err != context.Canceled {
		t.Fatalf("RunBatch error = %v, want context.Canceled", err)
	}
	if len(batch.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(batch.Results), len(jobs))
	}
	for i, jr := range batch.Results {
		if jr.Err == nil {
			t.Fatalf("job %d ran despite the cancelled context", i)
		}
	}
}

// TestRunnerBaseOptions: Runner-level options apply to every job and
// per-job options append after them.
func TestRunnerBaseOptions(t *testing.T) {
	// The batch-wide mesh is 1x1; stencil-tuned (2x2 group) clamps to a
	// single core there, and a per-job override restores the full group.
	single, _ := WorkloadByName("stencil-single")
	tuned, _ := WorkloadByName("stencil-tuned")
	r := &Runner{Workers: 2, Options: []Option{WithTopology(mustTopology(t, "1x1"))}}
	batch, err := r.RunBatch(context.Background(), []Job{
		{Workload: single},
		{Workload: tuned},
		{Workload: tuned, Options: []Option{WithTopology(mustTopology(t, "2x2"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range batch.Results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
	}
	clamped := batch.Results[1].Result.Metrics()
	full := batch.Results[2].Result.Metrics()
	if clamped.TotalFlops*4 != full.TotalFlops {
		t.Fatalf("clamped run did 1/%d of the full run's work, want 1/4",
			full.TotalFlops/max(clamped.TotalFlops, 1))
	}
}
