package system

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"epiphany/internal/core"
	"epiphany/internal/host"
	"epiphany/internal/mem"
)

func tinyStencil() core.StencilConfig {
	return core.StencilConfig{
		Rows: 4, Cols: 4, Iters: 2, GroupRows: 2, GroupCols: 2,
		Comm: true, Seed: 9,
	}
}

func TestAcquireRefusesReuse(t *testing.T) {
	s := New()
	if err := s.Acquire(); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	err := s.Acquire()
	if err == nil {
		t.Fatal("second Acquire on the same System succeeded")
	}
	if !strings.Contains(err.Error(), "one experiment") {
		t.Fatalf("reuse error %q does not explain the single-use contract", err)
	}
}

// acquired claims sys for one experiment, the way a workload does before
// driving the board, and returns its host for a core.RunX driver.
func acquired(t *testing.T, sys *System) *host.Host {
	t.Helper()
	if err := sys.Acquire(); err != nil {
		t.Fatal(err)
	}
	return sys.Host()
}

func TestNewTopologyGeometry(t *testing.T) {
	cases := []struct {
		topo              Topology
		rows, cols, chips int
	}{
		{E16, 4, 4, 1},
		{E64, 8, 8, 1},
		{Cluster2x2, 8, 8, 4},
		{SingleChip(2, 3), 2, 3, 1},
	}
	for _, c := range cases {
		s := NewTopology(c.topo)
		m := s.Chip().Map()
		gr, gc := m.ChipGrid()
		if m.Rows != c.rows || m.Cols != c.cols || gr*gc != c.chips {
			t.Errorf("%v: board %dx%d/%d chips, want %dx%d/%d",
				c.topo, m.Rows, m.Cols, gr*gc, c.rows, c.cols, c.chips)
		}
		if s.Engine() == nil || s.Host() == nil {
			t.Errorf("%v: missing engine or host", c.topo)
		}
	}
}

func TestTopologyValidateAndLookup(t *testing.T) {
	if err := (Topology{}).Validate(); err == nil {
		t.Error("zero topology validated")
	}
	if err := (Topology{ChipGridRows: 8, ChipGridCols: 1, CoreRows: 8, CoreCols: 8}).Validate(); err == nil {
		t.Error("64-row board fits nowhere in the 64x64 space at origin 32")
	}
	for _, want := range []string{"e16", "e64", "cluster-2x2"} {
		got, ok := TopologyByName(want)
		if !ok || got.Name != want {
			t.Errorf("TopologyByName(%q) = %v, %v", want, got, ok)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", want, err)
		}
	}
	if _, ok := TopologyByName("e9000"); ok {
		t.Error("unknown topology resolved")
	}
	if !Cluster2x2.MultiChip() || E64.MultiChip() {
		t.Error("MultiChip misclassifies the presets")
	}
}

func TestNewWorkgroupSpansChips(t *testing.T) {
	s := NewTopology(Cluster2x2)
	if _, err := s.NewWorkgroup(0, 0, 8, 8); err != nil {
		t.Fatalf("board-spanning workgroup refused: %v", err)
	}
	if _, err := s.NewWorkgroup(0, 0, 9, 8); err == nil {
		t.Fatal("workgroup larger than the board accepted")
	}
}

// TestResetRecyclesBitIdentically is the System-level recycling
// contract: Reset returns a used board to a state indistinguishable
// from a fresh one, so the same experiment replays byte-identically -
// results, statistics and all.
func TestResetRecyclesBitIdentically(t *testing.T) {
	fresh, err := core.RunStencil(acquired(t, New()), tinyStencil())
	if err != nil {
		t.Fatal(err)
	}

	sys := New()
	if _, err := core.RunStencil(acquired(t, sys), tinyStencil()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(); err != nil {
		t.Fatalf("Reset after a clean run: %v", err)
	}
	if now := sys.Engine().Now(); now != 0 {
		t.Fatalf("recycled engine starts at t=%v", now)
	}
	again, err := core.RunStencil(acquired(t, sys), tinyStencil())
	if err != nil {
		t.Fatalf("run on recycled System: %v", err)
	}
	if again.Elapsed != fresh.Elapsed || again.GFLOPS != fresh.GFLOPS {
		t.Fatalf("recycled run %v/%v, fresh run %v/%v",
			again.Elapsed, again.GFLOPS, fresh.Elapsed, fresh.GFLOPS)
	}

	// A different experiment on the recycled board also matches fresh.
	mcfg := core.MatmulConfig{M: 16, N: 16, K: 16, G: 2, Verify: true, Seed: 3}
	mfresh, err := core.RunMatmul(acquired(t, New()), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	magain, err := core.RunMatmul(acquired(t, sys), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if magain.Elapsed != mfresh.Elapsed || magain.GFLOPS != mfresh.GFLOPS {
		t.Fatalf("recycled matmul %v/%v, fresh %v/%v",
			magain.Elapsed, magain.GFLOPS, mfresh.Elapsed, mfresh.GFLOPS)
	}
}

func TestResetClearsAcquire(t *testing.T) {
	s := New()
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(); err != nil {
		t.Fatalf("Acquire after Reset: %v", err)
	}
}

func TestNewTopologyAppliesC2COverrides(t *testing.T) {
	// The override reaches the mesh: a cluster board built from an
	// overridden topology reports the overridden link timing, a default
	// one the calibrated constants.
	slow := Cluster2x2.WithC2C(40, 600)
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
	if bp, hl := NewTopology(slow).Chip().Fabric().Mesh.C2C(); bp != 40 || hl != 600 {
		t.Fatalf("overridden board C2C = (%v, %v), want (40, 600)", bp, hl)
	}
	bp0, hl0 := NewTopology(Cluster2x2).Chip().Fabric().Mesh.C2C()
	if bp0 == 40 || hl0 == 600 {
		t.Fatalf("default board C2C = (%v, %v), matches the override", bp0, hl0)
	}

	// Overrides are board identity: distinct values compare unequal (the
	// Runner's board pool keys on this), and String surfaces them.
	if slow == Cluster2x2 {
		t.Fatal("overridden topology compares equal to the preset")
	}
	if s := slow.String(); !strings.Contains(s, "c2c byte=40 hop=600") {
		t.Fatalf("String() %q does not surface the override", s)
	}
	if s := Cluster2x2.String(); strings.Contains(s, "c2c") {
		t.Fatalf("preset String() %q mentions an override", s)
	}

	// Out-of-range overrides are rejected without building a board.
	bad := Cluster2x2.WithC2C(2_000_000_000_000, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("absurd C2C override validated")
	}
}

func TestClusterC2COverrideChangesCrossingCosts(t *testing.T) {
	// The same cross-chip workload priced under a slower chip-to-chip
	// link must spend strictly more crossing time; a single-chip board
	// must ignore the override entirely.
	cfg := core.StreamStencilConfig{
		GlobalRows: 32, GlobalCols: 32, BlockRows: 8, BlockCols: 8,
		Iters: 2, TBlock: 1, GroupRows: 4, GroupCols: 4, Seed: 7,
	}
	run := func(topo Topology) core.Metrics {
		res, err := core.RunStreamStencil(acquired(t, NewTopology(topo)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics()
	}
	base := run(Cluster2x2)
	slow := run(Cluster2x2.WithC2C(50, 0))
	if base.ELinkCrossings == 0 {
		t.Fatal("cluster run crossed no chip boundaries; the workload does not exercise the override")
	}
	if slow.ELinkCrossings != base.ELinkCrossings {
		t.Fatalf("crossing count changed with link speed: %d vs %d", slow.ELinkCrossings, base.ELinkCrossings)
	}
	if slow.ELinkCrossTime <= base.ELinkCrossTime {
		t.Fatalf("10x slower link crossing time %v not above calibrated %v", slow.ELinkCrossTime, base.ELinkCrossTime)
	}
	if slow.Elapsed <= base.Elapsed {
		t.Fatalf("10x slower link elapsed %v not above calibrated %v", slow.Elapsed, base.Elapsed)
	}
	single := run(E64.WithC2C(50, 600))
	def := run(E64)
	if single != def {
		t.Fatalf("single-chip metrics changed under a C2C override:\n %+v\n %+v", single, def)
	}
}

// TestNewTopologyE64AllocBudget: building an e64 board allocates at most
// 4 MB - the shared DRAM window costs nothing until a program writes it.
func TestNewTopologyE64AllocBudget(t *testing.T) {
	const budget = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sinkSys = NewTopology(E64)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("NewTopology(E64) allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	}
}

// TestResetZeroesLastDRAMPage: a board whose last DRAM page was written
// reads zeros there after Reset.
func TestResetZeroesLastDRAMPage(t *testing.T) {
	sys := NewTopology(E64)
	vals := []float32{1, -2, 3.5, 4}
	sys.Host().Spawn("host", func(hp *host.Proc) {
		hp.WriteDRAMF32(mem.DRAMSize-4*mem.Addr(len(vals)), vals)
	})
	if err := sys.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Chip().DRAM().LoadF32(mem.DRAMSize - 4); got != 4 {
		t.Fatalf("last DRAM word = %v before Reset, want 4", got)
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 64<<10)
	sys.Chip().DRAM().Read(mem.DRAMSize-mem.Addr(len(page)), page)
	if !bytes.Equal(page, make([]byte, len(page))) {
		t.Fatal("last DRAM page not zero after Reset")
	}
}
