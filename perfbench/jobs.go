package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"epiphany"
	"epiphany/internal/system"
)

// nproc caps the benchmark's clients, sim workers and HTTP connections.
func nproc() int { return runtime.NumCPU() }

// twoClients is the client count of the multi-client workloads.
func twoClients() int { return min(2, nproc()) }

// scenario is one benchmark workload: how many closed-loop clients
// drive it and how to build the bench that executes its ops.
type scenario struct {
	name    string
	clients func() int
	setup   func(ctx context.Context, seed uint64, tr *tracer, parent int) (bench, error)
}

var scenarios = []scenario{
	{name: "paper-e64", clients: twoClients, setup: setupPaperE64},
	{name: "board-1024", clients: func() int { return 1 }, setup: setupBoard1024},
	{name: "serve-mixed", clients: twoClients, setup: setupServeMixed},
}

func scenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

func scenarioByName(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// bench executes one workload's ops against the state its set-up
// built. Each client owns a seeded op stream, so what a client submits
// depends only on the seed.
type bench interface {
	// do executes client's next op. The error reports a failed op: a
	// simulation error, a non-200 response, or a result that differs
	// from its reference.
	do(ctx context.Context, client int, tr *tracer, parent int) error
	// jobs lists the distinct simulations the op stream runs, each with
	// its share of the stream, for the per-layer ledger.
	jobs() []*job
	close()
}

// benchPrefix marks workloads the benchmark registers itself; the
// paper-e64 workload runs every registered preset except these.
const benchPrefix = "perfbench-"

// boardSpec is the 1024-core board: a 4x4 grid of 8x8 chips.
const boardSpec = "grid=4x4/chip=8x8"

// boardStencil is the chip-parallel stencil of board-1024: a 32x24
// workgroup spanning 12 of the board's 16 chips. GroupCols stays at 24
// because a Comm stencil with GroupCols 32 deadlocks on this board.
var boardStencil = &epiphany.StencilWorkload{Label: benchPrefix + "board-stencil", Config: epiphany.StencilConfig{
	Rows: 20, Cols: 20, Iters: 1, GroupRows: 32, GroupCols: 24,
	Comm: true, Tuned: true, Seed: 1,
}}

func init() { epiphany.Register(boardStencil) }

// job is one distinct simulation a workload submits, with the reference
// its results are checked against.
type job struct {
	name    string // registered workload name
	family  string // stencil, matmul or stream
	seed    uint64 // input seed
	spec    string // topology spelling
	topo    epiphany.Topology
	workers int // sim workers the op stream runs it with
	w       epiphany.Workload
	// refShards is the shard partition of the reference run (1, the
	// classic single event heap, unless a workload says otherwise).
	refShards int
	// ref is the Metrics digest of a run on a fresh board at refShards
	// and workers=1; product hashes the host reference of a matmul's
	// result (0 for other families).
	ref     string
	product uint64
}

func newJob(name, spec string, seed uint64, workers int) (*job, error) {
	w, ok := epiphany.WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("workload %q is not registered", name)
	}
	topo, err := epiphany.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	rs, ok := w.(epiphany.Reseeder)
	if !ok {
		return nil, fmt.Errorf("workload %q cannot be reseeded", name)
	}
	j := &job{name: name, seed: seed, spec: spec, topo: topo, workers: workers, w: rs.Reseed(seed), refShards: 1}
	switch j.w.(type) {
	case *epiphany.StencilWorkload:
		j.family = "stencil"
	case *epiphany.MatmulWorkload:
		j.family = "matmul"
	case *epiphany.StreamStencilWorkload:
		j.family = "stream"
	default:
		return nil, fmt.Errorf("workload %q is of no known family", name)
	}
	return j, nil
}

func (j *job) String() string { return fmt.Sprintf("%s@%s/seed=%d", j.name, j.spec, j.seed) }

// fitted is the workload shaped to the job's board, as Runner runs it.
func (j *job) fitted() epiphany.Workload {
	if f, ok := j.w.(epiphany.TopologyFitter); ok {
		return f.FitTopology(j.topo.Rows(), j.topo.Cols())
	}
	return j.w
}

// reference runs the job on a fresh board at refShards and workers=1
// and records what every later run must reproduce.
func (j *job) reference(ctx context.Context, tr *tracer, parent int) error {
	sys := newBoard(j.topo.WithShards(j.refShards), tr, tidSetup, parent)
	res, _, err := runOn(ctx, j.fitted(), sys, 1, tr, tidSetup, parent)
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", j, err)
	}
	j.ref = digest(res.Metrics())
	if mw, ok := j.fitted().(*epiphany.MatmulWorkload); ok {
		j.product = hashFloats(epiphany.MatmulReference(mw.Config))
	}
	return j.check(res)
}

// check compares a result with the job's reference.
func (j *job) check(res epiphany.Result) error {
	if err := j.checkMetrics(res.Metrics()); err != nil {
		return err
	}
	if j.product == 0 {
		return nil
	}
	mr, ok := res.(*epiphany.MatmulResult)
	if !ok {
		return fmt.Errorf("%s: result is %T, not a matmul result", j, res)
	}
	if hashFloats(mr.C) != j.product {
		return fmt.Errorf("%s: product differs from the host reference", j)
	}
	return nil
}

// checkMetrics compares simulated metrics with the job's reference. The
// simulated timing of the built-in kernels does not depend on input
// values, so one reference covers every seed of a workload and board.
func (j *job) checkMetrics(m epiphany.Metrics) error {
	if got := digest(m); got != j.ref {
		return fmt.Errorf("%s: metrics digest %s, reference %s", j, got, j.ref)
	}
	return nil
}

// digest fingerprints a run's simulated metrics. The scheduler counters
// are left out: they depend on shards and workers, the simulated result
// does not.
func digest(m epiphany.Metrics) string {
	m.Engine = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", m)
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashFloats(xs []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64() | 1 // never 0, which means "no product"
}

// newBoard builds a board, traced as a NewTopology span.
func newBoard(topo epiphany.Topology, tr *tracer, tid, parent int) *epiphany.System {
	sp := tr.begin(tid, "system", "NewTopology "+topo.Spec(), parent)
	defer tr.end(sp)
	return system.NewTopology(topo)
}

// runOn runs a prepared workload on sys with the given sim workers,
// traced as a Workload.Run span, and returns its wall time.
func runOn(ctx context.Context, w epiphany.Workload, sys *epiphany.System, workers int,
	tr *tracer, tid, parent int) (epiphany.Result, time.Duration, error) {
	sys.SetWorkers(workers)
	sp := tr.begin(tid, "core", "Workload.Run "+w.Name(), parent)
	t0 := time.Now()
	res, err := w.Run(ctx, sys)
	d := time.Since(t0)
	tr.end(sp)
	return res, d, err
}

// references computes every job's reference, one after another: a
// concurrent set-up would make setup_s depend on how the host schedules
// it.
func references(ctx context.Context, jobs []*job, tr *tracer, parent int) error {
	for _, j := range jobs {
		if err := j.reference(ctx, tr, parent); err != nil {
			return err
		}
	}
	return nil
}

// stream is one client's seeded op sequence: blocks that each hold
// every entry of a fixed composition once, in seeded order. The mix of
// ops is the same for every seed; the seed picks the order.
type stream struct {
	rng   *rand.Rand
	comp  []int
	block []int
}

func newStream(seed uint64, client int, comp []int) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), comp: comp}
}

func (s *stream) next() int {
	if len(s.block) == 0 {
		s.block = slices.Clone(s.comp)
		s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
	}
	i := s.block[0]
	s.block = s.block[1:]
	return i
}

// indices lists 0..n-1: a block that runs every job once.
func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// runnerBench submits jobs through one shared Runner with RunJob, the
// daemon's path: boards are recycled through the Runner's idle pool.
type runnerBench struct {
	runner  *epiphany.Runner
	list    []*job
	streams []*stream
}

func newRunnerBench(ctx context.Context, seed uint64, jobs []*job, clients int, opts []epiphany.Option,
	tr *tracer, parent int) (*runnerBench, error) {
	if err := references(ctx, jobs, tr, parent); err != nil {
		return nil, err
	}
	d := &runnerBench{runner: &epiphany.Runner{Workers: clients, Options: opts}, list: jobs}
	for c := range clients {
		d.streams = append(d.streams, newStream(seed, c, indices(len(jobs))))
	}
	// One run of the first job per client, concurrently, fills the
	// Runner's idle pool with a board per client before the timed loop.
	// It is the same job for every seed, so setup_s does not depend on
	// which op a seed puts first.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin(tidSetup, "workload", "RunJob "+jobs[0].name, parent)
			jr := d.runner.RunJob(ctx, epiphany.Job{Workload: jobs[0].w})
			tr.end(sp)
			if errs[c] = jr.Err; errs[c] == nil {
				errs[c] = jobs[0].check(jr.Result)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return d, nil
}

func (d *runnerBench) do(ctx context.Context, client int, tr *tracer, parent int) error {
	j := d.list[d.streams[client].next()]
	sp := tr.begin(client, "workload", "RunJob "+j.name, parent)
	jr := d.runner.RunJob(ctx, epiphany.Job{Workload: j.w})
	tr.end(sp)
	if jr.Err != nil {
		return fmt.Errorf("%s: %w", j, jr.Err)
	}
	return j.check(jr.Result)
}

func (d *runnerBench) jobs() []*job { return d.list }

func (d *runnerBench) close() {}

// paperJobs lists paper-e64's jobs: every registered preset on one e64
// chip, rebased onto seeded inputs.
func paperJobs(seed uint64) ([]*job, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	var jobs []*job
	for _, w := range epiphany.Workloads() {
		if strings.HasPrefix(w.Name(), benchPrefix) {
			continue
		}
		j, err := newJob(w.Name(), "e64", rng.Uint64(), 1)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func setupPaperE64(ctx context.Context, seed uint64, tr *tracer, parent int) (bench, error) {
	jobs, err := paperJobs(seed)
	if err != nil {
		return nil, err
	}
	opts := []epiphany.Option{epiphany.WithTopology(epiphany.TopologyE64)}
	return newRunnerBench(ctx, seed, jobs, twoClients(), opts, tr, parent)
}

// boardJobs lists board-1024's jobs: the chip-parallel stencil,
// matmul-offchip and stream-stencil, two input seeds each, on the
// 1024-core board with one shard per chip and nproc sim workers.
//
// Their references run on the same one-shard-per-chip partition,
// sequentially. On this board a Comm stencil's ELinkCrossTime at one
// shard differs from its value at one shard per chip (Elapsed and every
// other field agree), so a shards=1 reference would fail every stencil
// op; the sequential reference still checks the parallel scheduler.
func boardJobs(seed uint64) ([]*job, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	var jobs []*job
	for _, name := range []string{boardStencil.Name(), "matmul-offchip", "stream-stencil"} {
		for range 2 {
			j, err := newJob(name, boardSpec, rng.Uint64(), nproc())
			if err != nil {
				return nil, err
			}
			j.refShards = 0 // one shard per chip, as the op stream runs it
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

func setupBoard1024(ctx context.Context, seed uint64, tr *tracer, parent int) (bench, error) {
	jobs, err := boardJobs(seed)
	if err != nil {
		return nil, err
	}
	opts := []epiphany.Option{epiphany.WithTopology(jobs[0].topo), epiphany.WithWorkers(nproc())}
	return newRunnerBench(ctx, seed, jobs, 1, opts, tr, parent)
}
