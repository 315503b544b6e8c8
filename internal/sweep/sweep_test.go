package sweep

import (
	"context"
	"slices"
	"strings"
	"testing"

	"epiphany/internal/sim"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// TestNormalizeTopoAxis: every topology spelling the grammar accepts
// lands on the axis in its canonical form (Topology.Spec) - however it
// was typed - and becomes the default baseline; every spelling the
// grammar rejects fails Normalize.
func TestNormalizeTopoAxis(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"e16", "e16"},
		{"cluster-2x2", "cluster-2x2"},
		{"4x8", "4x8"},
		{"+4x8", "4x8"},
		{"e64/c2c=40:600", "e64/c2c=40:600"},
		{"2x2/c2c=5:0", "2x2/c2c=5:0"},
		{"cluster-2x2/c2c=0:0", "cluster-2x2"}, // zero overrides keep the calibrated defaults
		{"cluster-+2x2", "cluster-2x2"},        // spells the preset
		{"grid=4x4/chip=8x8", "grid=4x4/chip=8x8"},
		{"grid=2x4", "grid=2x4/chip=8x8"}, // /chip= default made explicit
		{"cluster-4x4", "cluster-4x4"},
		{"e64x16", "e64x16"},
		{"grid=1x1/chip=8x8", "grid=1x1/chip=8x8"}, // not aliased onto e64
		{"grid=2x2/chip=4x4/c2c=40:600", "grid=2x2/chip=4x4/c2c=40:600"},
	} {
		p, err := Plan{Workloads: []string{"stencil-tuned"}, Topos: []string{tc.in}}.Normalize()
		if err != nil {
			t.Errorf("Normalize(%q): %v", tc.in, err)
			continue
		}
		if len(p.Topos) != 1 || p.Topos[0] != tc.want || p.Baseline != tc.want {
			t.Errorf("Normalize(%q) = axis %q baseline %q, want %q", tc.in, p.Topos, p.Baseline, tc.want)
		}
	}
	for _, bad := range []string{"", "e63", "0x4", "4x", "e64/c2c=40", "e64/c2c=a:b", "99x99",
		"grid=0x4", "grid=8x8/chip=8x8", "cluster4x4", "e64x3", "grid=4x4/chip=ax8",
	} {
		if _, err := (Plan{Topos: []string{bad}}).Normalize(); err == nil {
			t.Errorf("Normalize(%q) accepted", bad)
		}
	}
}

// TestNormalizeRefusesShardsSuffix: the removed /shards= engine
// partition fails Normalize with the error naming its removal, on the
// topology axis and as the baseline, instead of reading as some other
// board.
func TestNormalizeRefusesShardsSuffix(t *testing.T) {
	const want = "the /shards= engine partition was removed"
	for _, p := range []Plan{
		{Workloads: []string{"stencil-tuned"}, Topos: []string{"e16", "cluster-2x2/shards=1"}},
		{Workloads: []string{"stencil-tuned"}, Topos: []string{"cluster-2x2/c2c=40:600/shards=4"}},
		{Workloads: []string{"stencil-tuned"}, Topos: []string{"e64x16/shards=4"}},
		{Workloads: []string{"stencil-tuned"}, Topos: []string{"e16"}, Baseline: "e16/shards=1"},
	} {
		if _, err := p.Normalize(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Normalize(%+v) = %v, want an error containing %q", p, err, want)
		}
	}
}

// TestNormalizeTopoSpellings: alternate spellings of one board dedupe
// to a single axis value, and the normalized axis is a fixpoint.
func TestNormalizeTopoSpellings(t *testing.T) {
	p, err := Plan{
		Workloads: []string{"stencil-tuned"},
		Topos:     []string{"grid=2x4", "grid=+2x4/chip=8x8", "e64", "e64/c2c=0:0"},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"e64", "grid=2x4/chip=8x8"}; !slices.Equal(p.Topos, want) {
		t.Fatalf("canonicalized axis %q, want %q", p.Topos, want)
	}
	again, err := p.Normalize()
	if err != nil || !slices.Equal(again.Topos, p.Topos) {
		t.Fatalf("re-normalized axis %q, %v; want %q", again.Topos, err, p.Topos)
	}
}

// TestNormalizeWorkloadSpellings: workload specs canonicalize like
// topologies - spellings of one configuration dedupe to a single axis
// value, a spec restating its preset is the preset's plain name - the
// axis is a fixpoint, and each cell's job runs the parsed config.
func TestNormalizeWorkloadSpellings(t *testing.T) {
	p, err := Plan{
		Workloads: []string{"stencil-tuned/rows=20/iters=2", "stencil-tuned/iters=02/rows=20",
			"stencil-tuned/rows=40", "matmul-cannon/g=2/algo=cannon"},
		Topos: []string{"e16"},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"matmul-cannon/g=2", "stencil-tuned", "stencil-tuned/rows=20/iters=2"}
	if !slices.Equal(p.Workloads, want) {
		t.Fatalf("canonicalized axis %q, want %q", p.Workloads, want)
	}
	again, err := p.Normalize()
	if err != nil || !slices.Equal(again.Workloads, p.Workloads) {
		t.Fatalf("re-normalized axis %q, %v; want %q", again.Workloads, err, p.Workloads)
	}
	job, cores, err := p.CellJob(p.Expand()[0])
	if err != nil {
		t.Fatal(err)
	}
	if m := job.Workload.(*workload.Matmul); m.Name() != want[0] || m.Config.G != 2 || cores != 4 {
		t.Errorf("cell job runs %q with G=%d on %d cores, want %q, G=2, 4 cores", m.Name(), m.Config.G, cores, want[0])
	}
	for _, bad := range []string{"stencil-tuned/rows=x", "stencil-tuned/seed=3", "badworkload/x=1"} {
		if _, err := (Plan{Workloads: []string{bad}}).Normalize(); err == nil {
			t.Errorf("Normalize(%q) accepted", bad)
		}
	}
}

// TestNormalizeCanonicalizesBaseline: the baseline goes through the
// grammar like the axis does, so any spelling of an axis value names
// it - and plans that differ only in the baseline's spelling are the
// same experiment.
func TestNormalizeCanonicalizesBaseline(t *testing.T) {
	plan := func(baseline string) Plan {
		return Plan{Workloads: []string{"stencil-tuned"}, Topos: []string{"e16", "grid=2x4"}, Baseline: baseline}
	}
	p, err := plan("grid=2x4").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Baseline != "grid=2x4/chip=8x8" {
		t.Errorf("baseline %q, want the canonical grid=2x4/chip=8x8", p.Baseline)
	}
	if fp(t, plan("grid=2x4")) != fp(t, plan("grid=2x4/chip=8x8")) {
		t.Error("baseline spellings of one board fingerprint differently")
	}
	for _, bad := range []string{"grid=2x8", "gird=2x4"} {
		_, err := plan(bad).Normalize()
		if err == nil || !strings.Contains(err.Error(), "is not on the sweep's topology axis") {
			t.Errorf("baseline %q: %v, want the off-axis error", bad, err)
		}
	}
}

func TestNormalizeDefaultsAndCanonicalOrder(t *testing.T) {
	p, err := Plan{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Workloads) != len(workload.All()) {
		t.Fatalf("default plan has %d workloads, registry %d", len(p.Workloads), len(workload.All()))
	}
	for i := 1; i < len(p.Workloads); i++ {
		if p.Workloads[i-1] >= p.Workloads[i] {
			t.Fatalf("workloads not sorted: %v", p.Workloads)
		}
	}
	// Scaling order: core count first (e16's 16 cores lead), then
	// spelling (cluster-2x2 before e64 at 64 cores).
	if got := strings.Join(p.Topos, ","); got != "e16,cluster-2x2,e64" {
		t.Fatalf("default topology axis %q", got)
	}
	if p.Baseline != "e16" {
		t.Fatalf("default baseline %q, want e16", p.Baseline)
	}

	// Duplicates collapse; explicit axes sort the same way however they
	// were written.
	p2, err := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon", "stencil-tuned"},
		Topos:     []string{"e64", "e16", "e64"},
		Seeds:     []uint64{9, 3, 9},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Workloads) != 2 || p2.Workloads[0] != "matmul-cannon" {
		t.Fatalf("workload axis %v", p2.Workloads)
	}
	if len(p2.Topos) != 2 || p2.Topos[0] != "e16" || p2.Baseline != "e16" {
		t.Fatalf("topology axis %v baseline %q", p2.Topos, p2.Baseline)
	}
	if len(p2.Seeds) != 2 || p2.Seeds[0] != 3 || p2.Seeds[1] != 9 {
		t.Fatalf("seed axis %v", p2.Seeds)
	}
}

func TestNormalizeRejects(t *testing.T) {
	if _, err := (Plan{Workloads: []string{"no-such"}}).Normalize(); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := (Plan{Topos: []string{"e63"}}).Normalize(); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := (Plan{Baseline: "cluster-9x9"}).Normalize(); err == nil {
		t.Error("baseline off the topology axis accepted")
	}
}

// TestDeriveColumns checks the derived-column arithmetic on synthetic
// cells, including the failure and missing-baseline edge cases.
func TestDeriveColumns(t *testing.T) {
	seed := uint64(7)
	mk := func(w, topo string, seed *uint64, cores int, elapsed, cross sim.Time, errs string) CellResult {
		c := CellResult{Workload: w, Topology: topo, Seed: seed, Cores: cores, Err: errs}
		c.Metrics.Elapsed = elapsed
		c.Metrics.ELinkCrossTime = cross
		return c
	}
	r := &Result{
		Plan: Plan{Baseline: "e16"},
		Cells: []CellResult{
			mk("a", "e16", nil, 4, 1000, 0, ""),
			mk("a", "e64", nil, 16, 250, 0, ""),         // 4x faster on 4x the cores
			mk("a", "e64", &seed, 16, 500, 0, ""),       // no e16 cell at this seed
			mk("b", "e16", nil, 8, 0, 0, "boom"),        // failed baseline
			mk("b", "e64", nil, 8, 300, 0, ""),          // baseline failed -> no speedup
			mk("c", "e16", nil, 4, 400, 0, ""),          // baseline of itself
			mk("c", "cluster-2x2", nil, 16, 800, 0, ""), // 2x slower on 4x cores
		},
	}
	r.Derive()
	want := []struct{ speedup, eff float64 }{
		{1, 1},
		{4, 1},
		{0, 0},
		{0, 0},
		{0, 0},
		{1, 1},
		{0.5, 0.125},
	}
	for i, w := range want {
		if got := r.Cells[i]; got.Speedup != w.speedup || got.Efficiency != w.eff {
			t.Errorf("cell %d (%s/%s): speedup=%v efficiency=%v, want %v/%v",
				i, got.Workload, got.Topology, got.Speedup, got.Efficiency, w.speedup, w.eff)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the acceptance property: the
// same plan renders bit-identical bytes on repeated runs and with any
// worker count, in every output format.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	plan := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon", "stream-stencil"},
		Topos:     []string{"e16", "e64", "cluster-2x2"},
	}
	render := func(workers int) [4]string {
		res, err := Run(context.Background(), plan, workers)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return [4]string{res.Text(), res.Markdown(), res.CSV(), string(js)}
	}
	first := render(1)
	for _, workers := range []int{1, 8} {
		if got := render(workers); got != first {
			t.Fatalf("output differs with %d workers", workers)
		}
	}
}

// TestRunCellOptions: each per-cell option function is called once per
// cell in expansion order, its option reaches that cell's run, and the
// CSV bytes stay those of a run without it.
func TestRunCellOptions(t *testing.T) {
	plan := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon"},
		Topos:     []string{"e16", "e64"},
	}
	var calls []Cell
	res, err := Run(context.Background(), plan, 2, func(c Cell) workload.Option {
		calls = append(calls, c)
		return workload.WithEngineStats()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(res.Cells) {
		t.Fatalf("%d option calls for %d cells", len(calls), len(res.Cells))
	}
	for i, c := range res.Cells {
		if calls[i].Workload != c.Workload || calls[i].Topo != c.Topology {
			t.Errorf("call %d was for %s@%s, cell %d is %s@%s",
				i, calls[i].Workload, calls[i].Topo, i, c.Workload, c.Topology)
		}
		if c.Metrics.Engine == nil {
			t.Errorf("cell %s@%s ran without its option", c.Workload, c.Topology)
		}
	}
	plain, err := Run(context.Background(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != plain.CSV() {
		t.Error("a per-cell option changed the CSV bytes")
	}
}

// TestRunRecordsCellErrors: a cell whose workload cannot run on its
// topology fails alone; the rest of the grid still executes and the
// failed cell keeps its position with empty derived columns.
func TestRunRecordsCellErrors(t *testing.T) {
	res, err := Run(context.Background(), Plan{
		Workloads: []string{"sweep-test-bad", "stencil-tuned"},
		Topos:     []string{"e16"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		switch c.Workload {
		case "sweep-test-bad":
			if c.Err == "" {
				t.Error("failing workload's cell has no error")
			}
			if c.Speedup != 0 || c.Metrics.Elapsed != 0 {
				t.Errorf("failed cell carries data: %+v", c)
			}
		case "stencil-tuned":
			if c.Err != "" {
				t.Errorf("healthy cell failed: %s", c.Err)
			}
			if c.Metrics.Elapsed == 0 {
				t.Error("healthy cell has no metrics")
			}
		}
	}
	if !strings.Contains(res.CSV(), "sweep-test-bad") {
		t.Error("failed cell missing from CSV")
	}
}

// TestRunWithSeedsAndOverrides: the seed axis multiplies the grid and a
// c2c-overridden cluster is a distinct, slower cell than the calibrated
// one.
func TestRunWithSeedsAndOverrides(t *testing.T) {
	res, err := Run(context.Background(), Plan{
		Workloads: []string{"stream-stencil"},
		Topos: []string{
			"cluster-2x2",
			"cluster-2x2/c2c=50:600",
		},
		Seeds:    []uint64{1, 2},
		Baseline: "cluster-2x2",
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 2 topos x 2 seeds", len(res.Cells))
	}
	byKey := map[string]CellResult{}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s seed %s failed: %s", c.Workload, c.Topology, seedLabel(c.Seed), c.Err)
		}
		byKey[c.Topology+"@"+seedLabel(c.Seed)] = c
	}
	for _, seed := range []string{"1", "2"} {
		base := byKey["cluster-2x2@"+seed]
		slow := byKey["cluster-2x2/c2c=50:600@"+seed]
		if base.Speedup != 1 || base.Efficiency != 1 {
			t.Errorf("baseline cell seed %s: speedup=%v eff=%v", seed, base.Speedup, base.Efficiency)
		}
		if slow.Metrics.Elapsed <= base.Metrics.Elapsed {
			t.Errorf("seed %s: 10x slower c2c link not slower (%v vs %v)", seed, slow.Metrics.Elapsed, base.Metrics.Elapsed)
		}
		if slow.Speedup >= 1 {
			t.Errorf("seed %s: slowed cell speedup %v >= 1", seed, slow.Speedup)
		}
	}
}

// badWorkload always fails validation; it exercises the per-cell error
// path without touching a board.
type badWorkload struct{}

func (badWorkload) Name() string    { return "sweep-test-bad" }
func (badWorkload) Validate() error { return errBad }
func (badWorkload) Run(context.Context, *system.System) (workload.Result, error) {
	return nil, errBad
}

var errBad = &badErr{}

type badErr struct{}

func (*badErr) Error() string { return "sweep-test-bad: intentionally invalid" }

func init() { workload.Register(badWorkload{}) }
