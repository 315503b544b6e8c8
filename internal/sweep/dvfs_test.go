package sweep

import (
	"context"
	"strings"
	"testing"
)

// TestNormalizeDVFSAxis: operating-point spellings are canonicalized,
// deduplicated and sorted by frequency, independent of written order;
// a power model with no explicit points gets the nominal one; a DVFS
// axis without a model is an error.
func TestNormalizeDVFSAxis(t *testing.T) {
	p, err := Plan{
		Workloads: []string{"stencil-tuned"},
		Power:     "epiphany-iv-28nm",
		DVFS:      []string{"600@1.0", "300MHz@0.80V", "600MHz@1.00V", "300@0.8"},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"300MHz@0.80V", "600MHz@1.00V"}
	if len(p.DVFS) != len(want) {
		t.Fatalf("DVFS axis %v, want %v", p.DVFS, want)
	}
	for i, label := range want {
		if p.DVFS[i] != label {
			t.Fatalf("DVFS axis %v, want %v", p.DVFS, want)
		}
	}

	p, err = Plan{Workloads: []string{"stencil-tuned"}, Power: "epiphany-iv-28nm"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DVFS) != 1 || p.DVFS[0] != "600MHz@1.00V" {
		t.Fatalf("defaulted DVFS axis %v, want the nominal point", p.DVFS)
	}

	if _, err := (Plan{DVFS: []string{"600@1.0"}}).Normalize(); err == nil ||
		!strings.Contains(err.Error(), "requires a power model") {
		t.Fatalf("DVFS without power model: %v", err)
	}
	if _, err := (Plan{Power: "no-such-model"}).Normalize(); err == nil ||
		!strings.Contains(err.Error(), "unknown power model") {
		t.Fatalf("unknown power model: %v", err)
	}
	if _, err := (Plan{Power: "epiphany-iv-28nm", DVFS: []string{"fast"}}).Normalize(); err == nil {
		t.Fatal("malformed operating point accepted")
	}
}

// TestExpandDVFSAxis: the operating-point axis multiplies the grid
// between topology and seed, and collapses away without a power model.
func TestExpandDVFSAxis(t *testing.T) {
	p, err := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon"},
		Topos:     []string{"e16", "e64"},
		Seeds:     []uint64{1, 2},
		Power:     "epiphany-iv-28nm",
		DVFS:      []string{"300@0.8", "600@1.0", "800@1.2"},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cells := p.Expand()
	if want := 2 * 2 * 3 * 2; len(cells) != want {
		t.Fatalf("%d cells, want %d (workloads x topos x dvfs x seeds)", len(cells), want)
	}
	// DVFS sits between topology and seed: within one workload/topology
	// run of cells, the seed axis cycles fastest.
	if cells[0].DVFS != cells[1].DVFS || cells[0].DVFS == cells[2].DVFS {
		t.Errorf("axis nesting wrong: %+v %+v %+v", cells[0], cells[1], cells[2])
	}

	noPower, err := Plan{Workloads: []string{"stencil-tuned"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range noPower.Expand() {
		if c.DVFS != "" {
			t.Fatalf("cell %+v carries a DVFS label without a power model", c)
		}
	}
}

// TestRunDVFSScalingTable executes a small frequency sweep and checks
// the energy columns behave physically: wall time shrinks with
// frequency, the derived ratios anchor at the baseline topology, and
// the table renderers surface the energy columns only when asked.
func TestRunDVFSScalingTable(t *testing.T) {
	res, err := Run(context.Background(), Plan{
		Workloads: []string{"stencil-tuned"},
		Topos:     []string{"e64"},
		Power:     "epiphany-iv-28nm",
		DVFS:      []string{"300@0.8", "600@1.0"},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	slow, fast := res.Cells[0], res.Cells[1]
	if slow.Err != "" || fast.Err != "" {
		t.Fatalf("cells failed: %q %q", slow.Err, fast.Err)
	}
	if slow.DVFS != "300MHz@0.80V" || fast.DVFS != "600MHz@1.00V" {
		t.Fatalf("cell order %q, %q", slow.DVFS, fast.DVFS)
	}
	// Identical cycle-domain run...
	if slow.Metrics.Elapsed != fast.Metrics.Elapsed {
		t.Errorf("simulated elapsed differs across DVFS points: %v vs %v",
			slow.Metrics.Elapsed, fast.Metrics.Elapsed)
	}
	// ...but half-frequency wall clock is twice as long, at lower power.
	if got, want := slow.Metrics.WallTimeS, 2*fast.Metrics.WallTimeS; got != want {
		t.Errorf("wall time %v at 300 MHz, want exactly %v", got, want)
	}
	if slow.Metrics.AvgPowerW >= fast.Metrics.AvgPowerW {
		t.Errorf("power at 0.8 V (%v W) not below 1.0 V (%v W)",
			slow.Metrics.AvgPowerW, fast.Metrics.AvgPowerW)
	}
	for _, c := range res.Cells {
		if c.Metrics.EnergyJ <= 0 || c.Metrics.GFLOPSPerWatt <= 0 {
			t.Errorf("cell %s: energy columns empty: %+v", c.DVFS, c.Metrics.EnergyJ)
		}
		if c.EnergyRel != 1 || c.EDPRel != 1 || c.Speedup != 1 {
			t.Errorf("cell %s: baseline ratios not 1: energy=%v edp=%v speedup=%v",
				c.DVFS, c.EnergyRel, c.EDPRel, c.Speedup)
		}
	}
	text := res.Text()
	for _, col := range []string{"dvfs", "wall (ms)", "energy (mJ)", "GFLOPS/W", "EDP rel"} {
		if !strings.Contains(text, col) {
			t.Errorf("energy sweep table lacks %q column:\n%s", col, text)
		}
	}
	csv := res.CSV()
	for _, col := range []string{"energy_j", "e_leakage_j", "edp_rel", "wall_s"} {
		if !strings.Contains(csv, col) {
			t.Errorf("energy CSV lacks %q column", col)
		}
	}

	// Without a power model the renderers must not mention energy.
	plain, err := Run(context.Background(), Plan{
		Workloads: []string{"stencil-tuned"}, Topos: []string{"e64"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := plain.Text() + plain.CSV(); strings.Contains(out, "energy") || strings.Contains(out, "dvfs") {
		t.Errorf("time-domain sweep output mentions energy columns:\n%s", out)
	}
}
