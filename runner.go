package epiphany

import "epiphany/internal/workload"

// The concurrent batch API. A Runner executes many workloads across a
// pool of goroutines, handing every job its own fresh System so each
// simulation stays bit-deterministic: a batch produces byte-identical
// Metrics to running the same jobs sequentially.
type (
	// Runner executes batches of workloads concurrently; its zero value
	// runs with GOMAXPROCS workers and no base options.
	Runner = workload.Runner
	// Job pairs a workload with per-job options.
	Job = workload.Job
	// JobResult reports one job: the workload's name, its Result, and a
	// per-job error (validation failure, run error, or captured panic).
	JobResult = workload.JobResult
	// BatchResult aggregates a batch in submission order.
	BatchResult = workload.BatchResult
	// BoardStats counts the boards a Runner's pool built and reused
	// (Runner.Boards).
	BoardStats = workload.BoardStats
)
