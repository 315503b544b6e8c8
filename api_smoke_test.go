package epiphany_test

// The re-export surface smoke test: every public alias and function
// the root package forwards from the internal packages is exercised at
// least once - compiled against AND executed - so a refactor that
// breaks a forwarding declaration (or quietly changes its behaviour)
// fails here, file by file, even before any deeper test runs. Kept
// deliberately shallow: the behavioural depth lives in the dedicated
// test files; this one pins the wiring.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"epiphany"
)

// TestAPISmokeWorkloadFile covers workload.go: the workload registry,
// the one-shot Run, every run Option, and the topology presets.
func TestAPISmokeWorkloadFile(t *testing.T) {
	// Registry: non-empty, sorted lookups agree, Register stays
	// available (calling it here would pollute the process-wide registry
	// the sweep goldens enumerate, so the smoke stops at linkage).
	ws := epiphany.Workloads()
	if len(ws) == 0 {
		t.Fatal("no registered workloads")
	}
	var _ func(epiphany.Workload) = epiphany.Register
	w, ok := epiphany.WorkloadByName(ws[0].Name())
	if !ok || w.Name() != ws[0].Name() {
		t.Fatalf("WorkloadByName(%q) = %v, %v", ws[0].Name(), w, ok)
	}
	if _, ok := epiphany.WorkloadByName("no-such-workload"); ok {
		t.Error("WorkloadByName invented a workload")
	}

	// Topology presets and lookup.
	if len(epiphany.Topologies()) != 3 {
		t.Fatalf("topology presets %v", epiphany.Topologies())
	}
	e16, ok := epiphany.TopologyByName("e16")
	if !ok || e16 != epiphany.TopologyE16 {
		t.Fatal("TopologyByName(e16) disagrees with TopologyE16")
	}
	if epiphany.TopologyE64.NumCores() != 64 || epiphany.TopologyCluster2x2.NumChips() != 4 {
		t.Fatal("preset topology vars misshapen")
	}

	// The topology grammar: preset names parse to the preset values, and
	// grid specs reach geometries no preset names.
	if topo, err := epiphany.ParseTopology("cluster-2x2"); err != nil || topo != epiphany.TopologyCluster2x2 {
		t.Fatalf("ParseTopology(cluster-2x2) = %v, %v", topo, err)
	}
	big, err := epiphany.ParseTopology("grid=4x4/chip=8x8")
	if err != nil || big.NumCores() != 1024 {
		t.Fatalf("ParseTopology(grid=4x4/chip=8x8) = %v, %v", big, err)
	}
	if _, err := epiphany.ParseTopology("grid=8x8/chip=8x8"); err == nil {
		t.Error("ParseTopology accepted a board beyond the 64x64 mesh ceiling")
	}

	// Run with every option; Reseeder and TopologyFitter are what make
	// WithSeed/WithTopology legal on the built-ins.
	st, _ := epiphany.WorkloadByName("stencil-tuned")
	var _ epiphany.Reseeder
	var _ epiphany.TopologyFitter
	var timeline bytes.Buffer
	res, err := epiphany.Run(context.Background(), st,
		epiphany.WithTopology(e16), epiphany.WithSeed(3), epiphany.WithTimeline(&timeline))
	if err != nil {
		t.Fatal(err)
	}
	var m epiphany.Metrics = res.Metrics()
	if m.Elapsed == 0 || m.GFLOPS <= 0 {
		t.Fatalf("degenerate metrics %+v", m)
	}
	if timeline.Len() == 0 {
		t.Error("WithTimeline wrote nothing")
	}
	mesh, err := epiphany.ParseTopology("4x4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := epiphany.Run(context.Background(), st, epiphany.WithTopology(mesh)); err != nil {
		t.Errorf("WithTopology(4x4): %v", err)
	}
}

// TestAPISmokeRunnerFile covers runner.go: a two-job batch through the
// Runner alias and the BatchResult accessors.
func TestAPISmokeRunnerFile(t *testing.T) {
	st, _ := epiphany.WorkloadByName("stencil-tuned")
	runner := &epiphany.Runner{Workers: 2, Options: []epiphany.Option{epiphany.WithTopology(epiphany.TopologyE16)}}
	batch, err := runner.RunBatch(context.Background(), []epiphany.Job{
		{Workload: st},
		{Workload: st, Options: []epiphany.Option{epiphany.WithSeed(5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(batch.Results); got != 2 {
		t.Fatalf("%d results, want 2", got)
	}
	var jr epiphany.JobResult = batch.Results[0]
	if jr.Err != nil || jr.Name != "stencil-tuned" {
		t.Fatalf("job result %+v", jr)
	}
	var br *epiphany.BatchResult = batch
	if br.Err() != nil || len(br.Failed()) != 0 {
		t.Fatalf("clean batch reports failure: %v", br.Err())
	}
}

// TestAPISmokeEpiphanyFile covers epiphany.go: system constructors, the
// kernel-level types, the application shims' configs, the host-side
// reference computations, and the experiment registry.
func TestAPISmokeEpiphanyFile(t *testing.T) {
	mesh, err := epiphany.ParseTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	var sys *epiphany.System = epiphany.NewSystemTopology(mesh)
	if sys.Chip().NumCores() != 4 {
		t.Fatal("NewSystemTopology(2x2) not 4 cores")
	}
	if epiphany.NewSystem().Chip().NumCores() != 64 {
		t.Fatal("NewSystem not the 64-core default")
	}
	if epiphany.NewSystemTopology(epiphany.TopologyE16).Chip().NumCores() != 16 {
		t.Fatal("NewSystemTopology(e16) not 16 cores")
	}
	var _ *epiphany.Chip = sys.Chip()
	wg, err := sys.NewWorkgroup(0, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var _ *epiphany.Workgroup = wg
	if wg.Size() != 4 {
		t.Fatalf("workgroup size %d", wg.Size())
	}
	var _ *epiphany.Core = sys.Chip().Core(0)
	var _ epiphany.Time // the virtual-clock unit

	// Host-side reference kernels and the comparison helper.
	scfg := epiphany.StencilConfig{Rows: 4, Cols: 4, Iters: 2, GroupRows: 1, GroupCols: 1, Seed: 1}
	if ref := epiphany.StencilReference(scfg); len(ref) == 0 {
		t.Fatal("StencilReference empty")
	}
	mcfg := epiphany.MatmulConfig{M: 8, N: 8, K: 8, G: 1, Verify: true}
	mref := epiphany.MatmulReference(mcfg)
	if len(mref) != 64 {
		t.Fatalf("MatmulReference size %d", len(mref))
	}
	if d := epiphany.MaxAbsDiff(mref, mref); d != 0 {
		t.Fatalf("MaxAbsDiff(x, x) = %v", d)
	}
	stcfg := epiphany.StreamStencilConfig{
		GlobalRows: 8, GlobalCols: 8, BlockRows: 4, BlockCols: 4,
		Iters: 2, TBlock: 1, GroupRows: 1, GroupCols: 1,
		Coefs: [5]float32{0.2, 0.2, 0.2, 0.2, 0.2}, Seed: 1,
	}
	if ref := epiphany.StreamStencilReference(stcfg); len(ref) == 0 {
		t.Fatal("StreamStencilReference empty")
	}
	var (
		_ *epiphany.StencilResult
		_ *epiphany.MatmulResult
		_ *epiphany.StreamStencilResult
		_ *epiphany.StencilWorkload
		_ *epiphany.MatmulWorkload
		_ *epiphany.StreamStencilWorkload
		_ *epiphany.Host
		_ *epiphany.HostProc
	)

	// The experiment registry.
	if len(epiphany.Experiments) == 0 {
		t.Fatal("no experiments exported")
	}
	var e epiphany.Experiment
	e, ok := epiphany.ExperimentByName(epiphany.Experiments[0].Name)
	if !ok || e.Name != epiphany.Experiments[0].Name {
		t.Fatal("ExperimentByName disagrees with Experiments")
	}
}

// TestAPISmokePowerFile covers power.go: model lookup, DVFS parsing,
// an energy-metered run with UnwrapResult, and the Table VII rows.
func TestAPISmokePowerFile(t *testing.T) {
	models := epiphany.PowerModels()
	if len(models) == 0 {
		t.Fatal("no power models")
	}
	var m *epiphany.PowerModel
	m, ok := epiphany.PowerModelByName("epiphany-iv-28nm")
	if !ok {
		t.Fatal("epiphany-iv-28nm missing")
	}
	var op epiphany.OperatingPoint
	op, err := epiphany.ParseDVFSPoint("300@0.85")
	if err != nil || op.FreqMHz != 300 {
		t.Fatalf("ParseDVFSPoint: %v, %v", op, err)
	}

	st, _ := epiphany.WorkloadByName("stencil-tuned")
	res, err := epiphany.Run(context.Background(), st,
		epiphany.WithTopology(epiphany.TopologyE16),
		epiphany.WithPowerModel("epiphany-iv-28nm", "300@0.85"))
	if err != nil {
		t.Fatal(err)
	}
	metrics := res.Metrics()
	if metrics.EnergyJ <= 0 || metrics.AvgPowerW <= 0 || metrics.GFLOPSPerWatt <= 0 {
		t.Fatalf("energy columns missing: %+v", metrics)
	}
	var bd epiphany.EnergyBreakdown = metrics.Energy
	if bd.Total() <= 0 {
		t.Fatalf("energy breakdown %+v", bd)
	}
	var _ *epiphany.EnergyUsage // the full report type behind AttachEnergy
	inner := epiphany.UnwrapResult(res)
	if _, ok := inner.(*epiphany.StencilResult); !ok {
		t.Fatalf("UnwrapResult gave %T, want *StencilResult", inner)
	}

	rows := epiphany.PowerComparison()
	if len(rows) == 0 {
		t.Fatal("PowerComparison empty")
	}
	var _ epiphany.PowerSystem = rows[0]
	computed := epiphany.ComputedPowerComparison(m, 64)
	if len(computed) != len(rows) {
		t.Fatalf("ComputedPowerComparison rows %d vs %d", len(computed), len(rows))
	}
}

// TestAPISmokeSweepFile covers sweep.go: plan aliases, the exported
// fingerprints, and a one-cell sweep.
func TestAPISmokeSweepFile(t *testing.T) {
	plan := epiphany.SweepPlan{Workloads: []string{"stencil-tuned"}, Topos: []string{"e16"}}

	// The content-addressing surface rides the aliases.
	fp, err := plan.Fingerprint()
	if err != nil || len(fp) != 64 {
		t.Fatalf("Fingerprint: %q, %v", fp, err)
	}
	normalized, err := plan.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var cell epiphany.SweepCell = normalized.Expand()[0]
	if id := normalized.CellFingerprint(cell); len(id) != 64 {
		t.Fatalf("CellFingerprint %q", id)
	}

	// The named-plan registry and the standing scaling study.
	plans := epiphany.SweepPlans()
	if len(plans) == 0 {
		t.Fatal("no registered sweep plans")
	}
	var np epiphany.NamedSweepPlan
	np, ok := epiphany.SweepPlanByName("scaling-1024")
	if !ok || np.Name != "scaling-1024" {
		t.Fatalf("SweepPlanByName(scaling-1024) = %+v, %v", np, ok)
	}
	if _, err := epiphany.ResolveSweepPlan("scaling-124"); err == nil {
		t.Error("ResolveSweepPlan accepted a misspelled plan name")
	}
	study := epiphany.ScalingStudyPlan()
	if len(study.Topos) != 5 || study.Baseline != "e16" {
		t.Fatalf("ScalingStudyPlan shape: %+v", study)
	}

	var res *epiphany.SweepResult
	res, err = epiphany.Sweep(context.Background(), plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cr epiphany.SweepCellResult = res.Cells[0]
	if cr.Err != "" || cr.Speedup != 1 {
		t.Fatalf("one-cell sweep %+v", cr)
	}
	if !strings.Contains(res.CSV(), "stencil-tuned") {
		t.Error("sweep CSV missing the cell")
	}
}

// TestAPISmokeServeFile covers serve.go; the behavioural depth is in
// serve_test.go, so this only pins the aliases and constructor.
func TestAPISmokeServeFile(t *testing.T) {
	var cfg epiphany.ServerConfig
	s, err := epiphany.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st epiphany.ServerStats = s.Stats()
	if st.QueueCapacity == 0 {
		t.Fatal("defaulted server has no queue capacity")
	}
	var (
		_ epiphany.ServeJobSpec
		_ epiphany.ServeJobResponse
	)
	if s.Draining() {
		t.Fatal("fresh server draining")
	}
}
