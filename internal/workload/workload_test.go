package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"epiphany/internal/core"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// probe is a minimal workload that records the geometry of the board it
// was handed and the seed it was rebased onto.
type probe struct {
	name  string
	seed  uint64
	rows  *int
	cols  *int
	chips *int
}

func (p *probe) Name() string    { return p.name }
func (p *probe) Validate() error { return nil }
func (p *probe) Reseed(seed uint64) Workload {
	c := *p
	c.seed = seed
	return &c
}
func (p *probe) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	m := sys.Chip().Map()
	if p.rows != nil {
		*p.rows, *p.cols, *p.chips = m.Rows, m.Cols, m.NumChips()
	}
	return fixedResult{}, nil
}

type fixedResult struct{}

func (fixedResult) Metrics() Metrics { return Metrics{} }

func TestRegisterRejectsNilUnnamedAndDuplicates(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("nil", func() { Register(nil) })
	mustPanic("unnamed", func() { Register(&probe{}) })
	Register(&probe{name: "test-dup-probe"})
	mustPanic("duplicate", func() { Register(&probe{name: "test-dup-probe"}) })
}

func TestRegistryLookupAndOrdering(t *testing.T) {
	if _, ok := ByName("stencil-tuned"); !ok {
		t.Fatal("built-in stencil-tuned not registered")
	}
	if _, ok := ByName("no-such-workload"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
	all := All()
	if len(all) < len(builtins) {
		t.Fatalf("All returned %d workloads, want >= %d built-ins", len(all), len(builtins))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name() >= all[i].Name() {
			t.Fatalf("All not sorted: %q before %q", all[i-1].Name(), all[i].Name())
		}
	}
}

func TestRunValidateFailures(t *testing.T) {
	cases := []struct {
		label string
		w     Workload
	}{
		{"negative stencil rows", &Stencil{Config: core.StencilConfig{
			Rows: -1, Cols: 20, Iters: 1, GroupRows: 1, GroupCols: 1}}},
		{"untiled tuned cols", &Stencil{Config: core.StencilConfig{
			Rows: 20, Cols: 19, Iters: 1, GroupRows: 1, GroupCols: 1, Tuned: true}}},
		{"bad matmul group edge", &Matmul{Config: core.MatmulConfig{
			M: 64, N: 64, K: 64, G: 3}}},
		{"off-chip SUMMA", &Matmul{Config: core.MatmulConfig{
			M: 64, N: 64, K: 64, G: 4, OffChip: true, Algorithm: "summa"}}},
		{"untileable stream grid", &StreamStencil{Config: core.StreamStencilConfig{
			GlobalRows: 100, GlobalCols: 100, BlockRows: 16, BlockCols: 16,
			Iters: 1, TBlock: 1, GroupRows: 1, GroupCols: 1}}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.w); err == nil {
			t.Errorf("%s: Run succeeded, want validation error", c.label)
		}
	}
	if _, err := Run(context.Background(), nil); err == nil {
		t.Error("Run of nil workload succeeded")
	}
}

func TestRunOptionPlumbing(t *testing.T) {
	var rows, cols, chips int
	p := &probe{name: "opt-probe", rows: &rows, cols: &cols, chips: &chips}

	if _, err := Run(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rows != 8 || cols != 8 || chips != 1 {
		t.Fatalf("default board %dx%d/%d chips, want 8x8/1", rows, cols, chips)
	}

	if _, err := Run(context.Background(), p, WithTopology(system.SingleChip(2, 3))); err != nil {
		t.Fatal(err)
	}
	if rows != 2 || cols != 3 || chips != 1 {
		t.Fatalf("single-chip board %dx%d/%d chips, want 2x3/1", rows, cols, chips)
	}

	if _, err := Run(context.Background(), p, WithTopology(system.Cluster2x2)); err != nil {
		t.Fatal(err)
	}
	if rows != 8 || cols != 8 || chips != 4 {
		t.Fatalf("cluster board %dx%d/%d chips, want 8x8/4", rows, cols, chips)
	}

	if _, err := Run(context.Background(), p, WithTopology(system.Topology{})); err == nil {
		t.Fatal("invalid topology accepted")
	}

	// WithSeed rebases via Reseeder without mutating the original.
	got := make(chan uint64, 1)
	seeded := &seedProbe{probe: probe{name: "seed-probe"}, got: got}
	if _, err := Run(context.Background(), seeded, WithSeed(42)); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != 42 {
		t.Fatalf("workload ran with seed %d, want 42", s)
	}
	if seeded.seed != 0 {
		t.Fatal("WithSeed mutated the registered workload")
	}

	// WithSeed on a non-Reseeder is refused.
	if _, err := Run(context.Background(), nonReseeder{}, WithSeed(1)); err == nil {
		t.Fatal("WithSeed on a non-Reseeder succeeded")
	}
}

type seedProbe struct {
	probe
	got chan uint64
}

func (s *seedProbe) Reseed(seed uint64) Workload {
	c := *s
	c.seed = seed
	return &c
}

func (s *seedProbe) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	s.got <- s.seed
	return fixedResult{}, nil
}

type nonReseeder struct{}

func (nonReseeder) Name() string    { return "non-reseeder" }
func (nonReseeder) Validate() error { return nil }
func (nonReseeder) Run(ctx context.Context, sys *system.System) (Result, error) {
	return fixedResult{}, nil
}

func TestFitTopologyClampsBuiltins(t *testing.T) {
	st := &Stencil{Config: core.StencilConfig{
		Rows: 40, Cols: 20, Iters: 1, GroupRows: 8, GroupCols: 8}}
	if got := st.FitTopology(8, 8); got != Workload(st) {
		t.Fatal("stencil fit of an already-fitting group must return the receiver")
	}
	fit := st.FitTopology(4, 4).(*Stencil)
	if fit.Config.GroupRows != 4 || fit.Config.GroupCols != 4 {
		t.Fatalf("stencil fit to 4x4 got %dx%d group", fit.Config.GroupRows, fit.Config.GroupCols)
	}
	if st.Config.GroupRows != 8 {
		t.Fatal("fit mutated the original stencil workload")
	}

	mm := &Matmul{Config: core.MatmulConfig{M: 128, N: 128, K: 128, G: 8, OffChip: true}}
	mfit := mm.FitTopology(4, 4).(*Matmul)
	if mfit.Config.G != 4 {
		t.Fatalf("matmul fit to 4x4 got G=%d, want 4", mfit.Config.G)
	}
	if mm.FitTopology(8, 8) != Workload(mm) {
		t.Fatal("matmul fit of a fitting group must return the receiver")
	}

	ss := &StreamStencil{Config: core.StreamStencilConfig{
		GlobalRows: 128, GlobalCols: 128, BlockRows: 16, BlockCols: 16,
		Iters: 1, TBlock: 1, GroupRows: 8, GroupCols: 8}}
	sfit := ss.FitTopology(4, 4).(*StreamStencil)
	if sfit.Config.GroupRows != 4 || sfit.Config.GroupCols != 4 {
		t.Fatalf("stream fit to 4x4 got %dx%d group", sfit.Config.GroupRows, sfit.Config.GroupCols)
	}
	if err := sfit.Validate(); err != nil {
		t.Fatalf("fitted stream stencil invalid: %v", err)
	}
}

// Every registered workload must run on every preset topology - the
// contract the conformance harness pins numerically at the repo root.
func TestBuiltinsRunOnEveryTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry x topology sweep")
	}
	for _, topo := range system.Topologies() {
		for _, w := range builtins {
			res, err := Run(context.Background(), w, WithTopology(topo))
			if err != nil {
				t.Errorf("%s on %s: %v", w.Name(), topo.Name, err)
				continue
			}
			if m := res.Metrics(); m.GFLOPS <= 0 {
				t.Errorf("%s on %s: GFLOPS = %v", w.Name(), topo.Name, m.GFLOPS)
			}
			if !topo.MultiChip() && res.Metrics().ELinkCrossings != 0 {
				t.Errorf("%s on %s: crossings on a single chip", w.Name(), topo.Name)
			}
		}
	}
}

// errWriter fails after accepting limit bytes.
type errWriter struct {
	limit int
	err   error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, w.err
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestRunSurfacesTraceWriteErrors checks that a failing WithTimeline
// writer fails the run with the writer's error wrapped, on Run and on a
// Runner job alike, and that the failed job still hands its board back
// to the Runner's pool in a state that reproduces a fresh run.
func TestRunSurfacesTraceWriteErrors(t *testing.T) {
	ctx := context.Background()
	w := &Stencil{Config: core.StencilConfig{
		Rows: 4, Cols: 4, Iters: 1, GroupRows: 1, GroupCols: 1, Seed: 1}}
	boom := fmt.Errorf("disk full")

	if _, err := Run(ctx, w, WithTimeline(&errWriter{err: boom})); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped %v", err, boom)
	}

	r := &Runner{Workers: 1}
	jr := r.RunJob(ctx, Job{Workload: w, Options: []Option{WithTimeline(&errWriter{err: boom})}})
	if !errors.Is(jr.Err, boom) {
		t.Fatalf("RunJob error = %v, want wrapped %v", jr.Err, boom)
	}
	if n := len(r.idle); n != 1 {
		t.Fatalf("failed timeline write left %d boards in the pool, want 1", n)
	}
	fresh, err := Run(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	jr = r.RunJob(ctx, Job{Workload: w})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if got, want := jr.Result.Metrics(), fresh.Metrics(); got != want {
		t.Fatalf("recycled board after a failed write: %+v, fresh run: %+v", got, want)
	}
}

func TestRunBatchZeroJobs(t *testing.T) {
	r := &Runner{}
	br, err := r.RunBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("RunBatch(nil) error: %v", err)
	}
	if len(br.Results) != 0 || br.Err() != nil || len(br.Failed()) != 0 {
		t.Fatalf("empty batch result %+v not empty/clean", br)
	}
	if br, err = r.RunBatch(context.Background(), []Job{}); err != nil || len(br.Results) != 0 {
		t.Fatalf("RunBatch([]) = %+v, %v", br, err)
	}
}

func TestRunBatchMoreWorkersThanJobs(t *testing.T) {
	r := &Runner{Workers: 64}
	br, err := r.RunWorkloads(context.Background(),
		&probe{name: "small-batch-a"}, &probe{name: "small-batch-b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(br.Results); got != 2 {
		t.Fatalf("batch of 2 returned %d results", got)
	}
	for i, jr := range br.Results {
		if jr.Err != nil || jr.Result == nil {
			t.Fatalf("job %d: %+v", i, jr)
		}
	}
}

// namePanicker panics in Name itself - before runJob can record any
// identity for the job.
type namePanicker struct{}

func (namePanicker) Name() string    { panic("no name for you") }
func (namePanicker) Validate() error { return nil }
func (namePanicker) Run(ctx context.Context, sys *system.System) (Result, error) {
	return fixedResult{}, nil
}

func TestRunBatchPanickingName(t *testing.T) {
	r := &Runner{Workers: 1}
	br, err := r.RunWorkloads(context.Background(),
		namePanicker{}, &probe{name: "after-panicker"})
	if err != nil {
		t.Fatal(err)
	}
	jr := br.Results[0]
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "panicked") {
		t.Fatalf("panicking Name produced %+v, want a captured panic error", jr)
	}
	// Name never returned, so the report cannot carry one; the recover
	// path deliberately reports the empty name rather than guessing.
	if jr.Name != "" {
		t.Fatalf("panicking Name still reported name %q", jr.Name)
	}
	if jr.Result != nil {
		t.Fatal("panicking job carries a result")
	}
	// The panic neither kills the batch nor poisons the board pool.
	if jr := br.Results[1]; jr.Err != nil || jr.Name != "after-panicker" {
		t.Fatalf("job after panicker: %+v", jr)
	}
}

// TestRunBatchPanickingNameAfterCancel covers the other path a
// panicking Name can take: a job still unfed when the context is
// cancelled is labelled for its JobResult by the leftover loop, and
// that labelling must not let the panic abort the batch. Whether the
// panicking job is fed to the worker before the feeder observes the
// cancellation is inherently racy, so both outcomes are accepted - the
// invariant is that RunBatch survives and reports per job.
func TestRunBatchPanickingNameAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{
		{Workload: &canceller{cancel: cancel}},
		{Workload: namePanicker{}},
	}
	r := &Runner{Workers: 1}
	br, err := r.RunBatch(ctx, jobs) // must not panic
	if err != context.Canceled {
		t.Fatalf("RunBatch error = %v, want context.Canceled", err)
	}
	jr := br.Results[1]
	switch {
	case jr.Err == context.Canceled && jr.Name == "":
		// Never fed: the leftover loop labelled it via safeName.
	case jr.Err != nil && strings.Contains(jr.Err.Error(), "panicked"):
		// Fed before the feeder saw the cancellation: runJob captured it.
	default:
		t.Fatalf("panicking-Name job reported %+v, want ctx error or captured panic", jr)
	}
}

// sysRecorder records the *system.System pointer each run received, then
// runs inner on it (or just Acquires the board when inner is nil).
type sysRecorder struct {
	name  string
	seen  *[]*system.System
	inner Workload
}

func (s *sysRecorder) Name() string    { return s.name }
func (s *sysRecorder) Validate() error { return nil }
func (s *sysRecorder) Run(ctx context.Context, sys *system.System) (Result, error) {
	*s.seen = append(*s.seen, sys)
	if s.inner != nil {
		return s.inner.Run(ctx, sys)
	}
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	return fixedResult{}, nil
}

// TestRunnerPoolsSystems proves the recycling path is actually taken,
// and that RunBatch workers and RunJob calls share one pool.
func TestRunnerPoolsSystems(t *testing.T) {
	ctx := context.Background()
	var seen []*system.System
	w := &sysRecorder{name: "sys-recorder", seen: &seen}
	e16 := []Option{WithTopology(system.E16)}

	// Consecutive same-topology jobs on a one-worker batch run on the
	// same board (recycled through Reset), and a topology change forces
	// a rebuild.
	r := &Runner{Workers: 1}
	br, err := r.RunBatch(ctx, []Job{
		{Workload: w},
		{Workload: w},
		{Workload: w, Options: e16},
		{Workload: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("recorded %d systems, want 4", len(seen))
	}
	if seen[0] != seen[1] {
		t.Error("consecutive same-topology jobs did not recycle the pooled System")
	}
	if seen[1] == seen[2] {
		t.Error("topology change reused the cached System")
	}
	if seen[2] == seen[3] {
		t.Error("default-topology job reused the E16 board")
	}

	// A RunJob after a batch reuses the batch's board.
	if jr := r.RunJob(ctx, Job{Workload: w}); jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if seen[4] != seen[3] {
		t.Error("RunJob after RunBatch built a fresh board instead of reusing the batch's")
	}

	// With two idle slots, alternating topologies each find their own
	// board: job 3 reuses job 1's E16, job 4 reuses job 2's E64.
	seen = seen[:0]
	r = &Runner{Workers: 2}
	for _, opts := range [][]Option{e16, nil, e16, nil} {
		if jr := r.RunJob(ctx, Job{Workload: w, Options: opts}); jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	if seen[0] == seen[1] {
		t.Fatal("E16 and E64 jobs shared a board")
	}
	if seen[2] != seen[0] {
		t.Error("third job (E16) did not reuse the first job's board")
	}
	if seen[3] != seen[1] {
		t.Error("fourth job (E64) did not reuse the second job's board")
	}
}

// TestRunnerPoolEvictsDuplicateTopologyFirst: when concurrent jobs
// return two boards of one topology to a full pool, the older duplicate
// is evicted rather than the only board of another topology.
func TestRunnerPoolEvictsDuplicateTopologyFirst(t *testing.T) {
	r := &Runner{Workers: 2}
	e64, e16a, e16b := system.NewTopology(system.E64), system.NewTopology(system.E16), system.NewTopology(system.E16)
	r.put(system.E64, e64)
	r.put(system.E16, e16a)
	r.put(system.E16, e16b)
	if got := r.get(system.E64); got != e64 {
		t.Error("the only idle E64 board was evicted in favour of a second E16")
	}
	if got := r.get(system.E16); got != e16b {
		t.Error("the newer E16 board was not the one kept")
	}
}

// TestRunnerPoolSharedConcurrently drives one Runner's pool from batch
// workers and RunJob callers at once. A board handed to two jobs at the
// same time would fail the second job's Acquire; -race checks the
// pool's locking.
func TestRunnerPoolSharedConcurrently(t *testing.T) {
	ctx := context.Background()
	r := &Runner{Workers: 2}
	e16 := []Option{WithTopology(system.E16)}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Workload: &probe{name: fmt.Sprintf("batch-%d", i)}}
		if i%2 == 1 {
			jobs[i].Options = e16
		}
	}
	const callers, calls = 2, 3
	errs := make(chan error, callers*calls)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				job := Job{Workload: &probe{name: "solo"}}
				if (g+i)%2 == 1 {
					job.Options = e16
				}
				errs <- r.RunJob(ctx, job).Err
			}
		}()
	}
	br, err := r.RunBatch(ctx, jobs)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.idle); n > r.Workers {
		t.Fatalf("%d idle boards pooled, want at most Workers=%d", n, r.Workers)
	}
}

// deadlocker parks a proc on a condition nobody signals, so its run ends
// in a deadlock, which unwinds the proc.
type deadlocker struct {
	seen *[]*system.System
}

func (d *deadlocker) Name() string    { return "deadlocker" }
func (d *deadlocker) Validate() error { return nil }
func (d *deadlocker) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	*d.seen = append(*d.seen, sys)
	never := sim.NewCond(sys.Engine(), "never")
	sys.Engine().Spawn("stuck", func(p *sim.Proc) { p.WaitCond(never) })
	return fixedResult{}, sys.Engine().Run()
}

// TestRunnerRecyclesFailedBoards: a board whose run deadlocked passes
// Reset and goes back to the pool, so the next same-topology job gets
// the same System and reproduces a fresh run exactly.
func TestRunnerRecyclesFailedBoards(t *testing.T) {
	ctx := context.Background()
	st, ok := ByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned not registered")
	}
	fresh, err := Run(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*system.System
	r := &Runner{Workers: 1}
	jr := r.RunJob(ctx, Job{Workload: &deadlocker{seen: &seen}})
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "deadlock") {
		t.Fatalf("deadlocking job reported %v, want a deadlock error", jr.Err)
	}
	jr = r.RunJob(ctx, Job{Workload: &sysRecorder{name: "after-deadlock", seen: &seen, inner: st}})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if seen[0] != seen[1] {
		t.Fatal("the deadlocked board was dropped instead of recycled")
	}
	if got, want := jr.Result.Metrics(), fresh.Metrics(); got != want {
		t.Fatalf("job after a failed board drifted:\n got  %+v\n want %+v", got, want)
	}
}

// TestDecoratorCarriesEnergyAndEngineStats: a run metered and observed at
// once is wrapped exactly once, carrying both derived domains.
func TestDecoratorCarriesEnergyAndEngineStats(t *testing.T) {
	w := &Stencil{Config: core.StencilConfig{
		Rows: 4, Cols: 4, Iters: 1, GroupRows: 1, GroupCols: 1, Seed: 1}}
	res, err := Run(context.Background(), w,
		WithPowerModel("epiphany-iv-28nm", ""), WithEngineStats())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m.EnergyJ <= 0 || m.Energy.Total() <= 0 {
		t.Errorf("energy domain missing: EnergyJ=%v breakdown %+v", m.EnergyJ, m.Energy)
	}
	if m.Engine == nil {
		t.Error("Metrics.Engine is nil under WithEngineStats")
	}
	u, ok := res.(interface{ Unwrap() Result })
	if !ok {
		t.Fatalf("decorated result %T has no Unwrap", res)
	}
	if _, ok := u.Unwrap().(*core.StencilResult); !ok {
		t.Fatalf("one Unwrap step gave %T, want *core.StencilResult", u.Unwrap())
	}
	if _, ok := Unwrap(res).(*core.StencilResult); !ok {
		t.Fatalf("Unwrap gave %T, want *core.StencilResult", Unwrap(res))
	}
}

// TestRunnerRecycledSystemsBitDeterministic is the semantic half of the
// pooling contract: a batch that recycles boards produces byte-identical
// Metrics to one-shot runs on fresh boards.
func TestRunnerRecycledSystemsBitDeterministic(t *testing.T) {
	names := []string{"stencil-tuned", "matmul-cannon", "stencil-tuned", "matmul-cannon"}
	jobs := make([]Job, len(names))
	for i, n := range names {
		w, ok := ByName(n)
		if !ok {
			t.Fatalf("workload %q not registered", n)
		}
		jobs[i] = Job{Workload: w}
	}
	r := &Runner{Workers: 1} // one worker => jobs 2 and 3 run on recycled boards
	br, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	for i, jr := range br.Results {
		w, _ := ByName(names[i])
		fresh, err := Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jr.Result.Metrics(), fresh.Metrics(); got != want {
			t.Errorf("job %d (%s) on a recycled board drifted:\n got  %+v\n want %+v", i, names[i], got, want)
		}
	}
}

func TestRunnerCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 8
	jobs := make([]Job, n)
	jobs[0] = Job{Workload: &canceller{cancel: cancel}}
	for i := 1; i < n; i++ {
		jobs[i] = Job{Workload: &probe{name: fmt.Sprintf("late-%d", i)}}
	}
	r := &Runner{Workers: 1}
	batch, err := r.RunBatch(ctx, jobs)
	if err != context.Canceled {
		t.Fatalf("RunBatch error = %v, want context.Canceled", err)
	}
	if batch.Results[0].Err != nil {
		t.Fatalf("in-flight job aborted: %v", batch.Results[0].Err)
	}
	for i := 1; i < n; i++ {
		jr := batch.Results[i]
		if jr.Err == nil {
			t.Fatalf("job %d ran to completion after cancellation", i)
		}
		if jr.Name == "" {
			t.Fatalf("job %d lost its workload name", i)
		}
		if !strings.Contains(jr.Err.Error(), context.Canceled.Error()) {
			t.Fatalf("job %d error = %v, want context.Canceled", i, jr.Err)
		}
	}
	if batch.Err() == nil {
		t.Fatal("batch with cancelled jobs reports no error")
	}
}

// canceller cancels the batch context from inside its own run, then
// completes normally - the in-flight simulation is never aborted.
type canceller struct {
	cancel context.CancelFunc
}

func (c *canceller) Name() string    { return "canceller" }
func (c *canceller) Validate() error { return nil }
func (c *canceller) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	c.cancel()
	return fixedResult{}, nil
}

// TestResetZeroesEverySRAM runs every built-in workload on three board
// sizes, recycles the board through System.Reset, and requires every
// byte of every scratchpad to read zero. Goldens cannot catch a write
// path that forgets to mark its SRAM block dirty: kernels overwrite
// their inputs before reading them, so stale bytes left by Reset never
// reach a metric.
func TestResetZeroesEverySRAM(t *testing.T) {
	zero := make([]byte, mem.SRAMSize)
	for _, spec := range []string{"e64", "cluster-2x2", "grid=2x4/chip=8x8"} {
		topo, err := system.ParseTopologySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range builtins {
			pw, rc, err := prepare(w, []Option{WithTopology(topo)})
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), spec, err)
			}
			sys := system.NewTopology(rc.topo)
			if _, err := runOn(context.Background(), pw, sys, &rc); err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), spec, err)
			}
			srams := sys.Chip().Fabric().SRAMs
			if !slices.ContainsFunc(srams, func(s *mem.SRAM) bool { return !bytes.Equal(s.View(0, mem.SRAMSize), zero) }) {
				t.Fatalf("%s on %s wrote no SRAM", w.Name(), spec)
			}
			if err := sys.Reset(); err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), spec, err)
			}
			for i, s := range srams {
				if !bytes.Equal(s.View(0, mem.SRAMSize), zero) {
					t.Fatalf("%s on %s: core %d's SRAM is not zero after Reset", w.Name(), spec, i)
				}
			}
		}
	}
}
