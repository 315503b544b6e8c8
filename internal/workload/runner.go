package workload

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"epiphany/internal/system"
)

// Job pairs a workload with per-job options (appended after the
// Runner's base options, so a job can override the batch defaults).
type Job struct {
	Workload Workload
	Options  []Option
}

// JobResult reports one job of a batch.
type JobResult struct {
	// Name is the workload's name (empty only if the job had no
	// workload).
	Name string
	// Result is nil when Err is set.
	Result Result
	Err    error
}

// BatchResult aggregates a batch; Results is index-aligned with the
// submitted jobs regardless of completion order.
type BatchResult struct {
	Results []JobResult
}

// Failed returns the jobs that did not produce a result.
func (b *BatchResult) Failed() []JobResult {
	var failed []JobResult
	for _, jr := range b.Results {
		if jr.Err != nil {
			failed = append(failed, jr)
		}
	}
	return failed
}

// Err summarises the batch: nil when every job succeeded, otherwise the
// first failure annotated with the failure count.
func (b *BatchResult) Err() error {
	failed := b.Failed()
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("epiphany: %d of %d jobs failed, first %q: %w",
		len(failed), len(b.Results), failed[0].Name, failed[0].Err)
}

// Runner executes batches of workloads concurrently. Every job gets its
// own pristine System - built fresh, or recycled through System.Reset
// from an earlier job of the same topology (a System is single-use
// between resets; sharing a live one across jobs would blend virtual
// clocks and statistics). Either way each simulation stays
// bit-deterministic: a batch produces byte-identical Metrics to running
// the same jobs sequentially, in any interleaving, on fresh boards.
//
// Idle boards wait in one pool that RunBatch workers and RunJob calls
// share, keyed by topology: it keeps at most Workers boards of each
// topology, so a mixed stream (a daemon serving several board shapes)
// rebuilds a board only when more jobs of one shape run at once than
// before. Across topologies the pool is bounded by what the boards
// hold (System.Footprint: the SRAM and DRAM blocks they have
// written plus their fixed cost). While the idle boards hold more than
// Workers times poolBytesPerWorker, the pool evicts down to Workers
// boards: the least recently returned first, but a board whose
// topology a newer idle board shares before any other. Boards too large
// for the budget thus recycle as in a pool of Workers boards, and the
// budget decides how many more stay. An evicted board is only dropped:
// its pooled coroutines stop once it is garbage collected. Boards
// reports how many boards the pool built and reused.
type Runner struct {
	// Workers caps the number of concurrent simulations, and the idle
	// boards kept per topology; <= 0 means GOMAXPROCS.
	Workers int
	// Options are applied to every job, before the job's own options.
	Options []Option

	// idle is the board pool, least recently returned first. A board
	// is in it only while no job holds it, and only after System.Reset
	// certified it pristine. The match is whole-Topology equality, so
	// every board-identity axis (C2C overrides, power model and DVFS
	// point) pools separately. idleBytes is the sum of the idle boards'
	// footprints.
	mu        sync.Mutex
	idle      []idleBoard
	idleBytes int

	built, reused atomic.Int64
}

// poolBytesPerWorker is the pool's byte budget per worker. Past
// Workers times this the pool keeps only Workers boards, so its idle
// boards hold at most that many bytes or Workers boards, whichever is
// more. Pooled after running serve-mixed's kernels, an e16 holds about
// 0.6 MB, an e64 1.3 MB and a 2x2 cluster 1.7 MB, so a worker's share
// keeps a few chip-sized boards; a 1024-core board holds 12 MB, more
// than one share.
const poolBytesPerWorker = 8 << 20

type idleBoard struct {
	topo  system.Topology
	sys   *system.System
	bytes int // sys.Footprint() when it was returned
}

// BoardStats counts how a Runner's jobs got their boards.
type BoardStats struct {
	// Built is the boards built fresh, when the pool held none of the
	// job's topology.
	Built int64
	// Reused is the boards taken from the idle pool.
	Reused int64
}

// Boards reports the boards the Runner has built and reused so far. It
// is safe for concurrent use and allocates nothing.
func (r *Runner) Boards() BoardStats {
	return BoardStats{Built: r.built.Load(), Reused: r.reused.Load()}
}

// RunBatch executes jobs across the worker pool and returns the
// aggregated results in submission order. Errors - validation failures,
// run errors, panics out of a workload - are captured per job, never
// aborting the rest of the batch. Cancelling ctx stops feeding new jobs
// (simulations already in flight run to completion); jobs that never
// started report ctx's error. The returned error is ctx's error, if
// any - per-job failures are reported in the BatchResult only.
func (r *Runner) RunBatch(ctx context.Context, jobs []Job) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	br := &BatchResult{Results: make([]JobResult, len(jobs))}
	workers := r.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				br.Results[i] = r.runJob(ctx, jobs[i])
			}
		}()
	}
	next := 0
feed:
	for ; next < len(jobs); next++ {
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for ; next < len(jobs); next++ {
		if jobs[next].Workload != nil {
			br.Results[next].Name = safeName(jobs[next].Workload)
		}
		br.Results[next].Err = ctx.Err()
	}
	return br, ctx.Err()
}

// safeName reports w.Name(), or the empty string when Name itself
// panics - a job that never ran must not abort the batch while being
// labelled for its result.
func safeName(w Workload) (name string) {
	defer func() { _ = recover() }()
	return w.Name()
}

// RunJob executes one job outside a batch, drawing its board from the
// same pool RunBatch uses, so a long-lived caller submitting jobs one at
// a time (the epiphany-serve daemon) keeps the construction-amortizing
// behaviour of a batch. RunJob is safe for concurrent use; two in-flight
// jobs never share a System. The result is bit-identical to Run or
// RunBatch on the same job - recycled boards are certified pristine by
// System.Reset before reuse.
func (r *Runner) RunJob(ctx context.Context, job Job) JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return r.runJob(ctx, job)
}

// workers resolves Workers: GOMAXPROCS when unset.
func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// RunWorkloads is RunBatch over bare workloads with no per-job options.
func (r *Runner) RunWorkloads(ctx context.Context, ws ...Workload) (*BatchResult, error) {
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		jobs[i] = Job{Workload: w}
	}
	return r.RunBatch(ctx, jobs)
}

// get takes the most recently returned idle board of topology topo, or
// builds a fresh one.
func (r *Runner) get(topo system.Topology) *system.System {
	r.mu.Lock()
	for i := len(r.idle) - 1; i >= 0; i-- {
		if r.idle[i].topo == topo {
			sys := r.idle[i].sys
			r.remove(i)
			r.mu.Unlock()
			r.reused.Add(1)
			return sys
		}
	}
	r.mu.Unlock()
	r.built.Add(1)
	return system.NewTopology(topo)
}

// put returns a board after its job, keeping it only if System.Reset
// certifies it pristine. Beyond Workers idle boards of its topology the
// least recently returned of them is evicted; then, while the idle
// boards hold more than the budget, the pool evicts (evictable) down to
// Workers boards.
func (r *Runner) put(topo system.Topology, sys *system.System) {
	if sys.Reset() != nil {
		return
	}
	b := idleBoard{topo, sys, sys.Footprint()}
	limit := r.workers()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idle = append(r.idle, b)
	r.idleBytes += b.bytes
	same := 0
	for i := len(r.idle) - 1; i >= 0; i-- {
		if r.idle[i].topo == topo {
			if same++; same > limit {
				r.remove(i)
			}
		}
	}
	for r.idleBytes > limit*poolBytesPerWorker && len(r.idle) > limit {
		r.remove(r.evictable())
	}
}

// evictable returns the index of the idle board to evict over budget:
// the least recently returned whose topology a newer idle board shares,
// else the least recently returned. The caller holds r.mu.
func (r *Runner) evictable() int {
	for i, b := range r.idle {
		for _, newer := range r.idle[i+1:] {
			if newer.topo == b.topo {
				return i
			}
		}
	}
	return 0
}

// remove drops idle board i from the pool. The caller holds r.mu.
func (r *Runner) remove(i int) {
	r.idleBytes -= r.idle[i].bytes
	r.idle = slices.Delete(r.idle, i, i+1)
}

// runJob executes one job on a pristine System from the pool,
// converting panics (for example from a malformed Initial field) into
// per-job errors. A System a panic escaped from is never pooled.
func (r *Runner) runJob(ctx context.Context, job Job) (jr JobResult) {
	defer func() {
		if p := recover(); p != nil {
			jr.Result = nil
			jr.Err = fmt.Errorf("epiphany: workload %q panicked: %v", jr.Name, p)
		}
	}()
	if job.Workload == nil {
		jr.Err = fmt.Errorf("epiphany: job has no workload")
		return jr
	}
	jr.Name = job.Workload.Name()
	opts := make([]Option, 0, len(r.Options)+len(job.Options))
	opts = append(opts, r.Options...)
	opts = append(opts, job.Options...)
	w, rc, err := prepare(job.Workload, opts)
	if err != nil {
		jr.Err = err
		return jr
	}
	if err := ctx.Err(); err != nil {
		jr.Err = err
		return jr
	}
	sys := r.get(rc.topo)
	jr.Result, jr.Err = runOn(ctx, w, sys, &rc)
	// Reset recycles the board after a run error too: a failed run
	// unwound its procs, and Reset unwinds what a stopped one parked.
	r.put(rc.topo, sys)
	return jr
}
