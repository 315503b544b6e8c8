package epiphany_test

// The sweep acceptance harness: the default experiment sweep - every
// registered workload over the e16/e64/cluster-2x2 presets - must
// render bit-identical output across repeated runs and across worker
// counts, and the machine-grade CSV is pinned to the golden file
// checked into testdata (regenerate with
// `go run ./cmd/epiphany-sweep -format csv -o testdata/sweep_golden.csv`
// and explain the drift in the commit message).

import (
	"context"
	"os"
	"strings"
	"testing"

	"epiphany"
)

func TestSweepDefaultGridMatchesGolden(t *testing.T) {
	res, err := epiphany.Sweep(context.Background(), epiphany.SweepPlan{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/sweep_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	got := res.CSV()
	if got != string(want) {
		t.Errorf("default sweep CSV drifted from testdata/sweep_golden.csv;\nregenerate with `go run ./cmd/epiphany-sweep -format csv -o testdata/sweep_golden.csv` and explain why in the commit message\n got:\n%s", got)
	}

	// The grid covers every registered workload on every preset, with
	// no failed cells.
	workloads := epiphany.Workloads()
	topos := epiphany.Topologies()
	if len(res.Cells) != len(workloads)*len(topos) {
		t.Fatalf("%d cells, want %d workloads x %d topologies", len(res.Cells), len(workloads), len(topos))
	}
	type key struct{ w, topo string }
	seen := map[key]bool{}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.Workload, c.Topology, c.Err)
		}
		seen[key{c.Workload, c.Topology}] = true
	}
	for _, w := range workloads {
		for _, topo := range topos {
			if !seen[key{w.Name(), topo.Name}] {
				t.Errorf("no cell for %s on %s", w.Name(), topo.Name)
			}
		}
	}

	// The baseline cells anchor the derived columns: speedup and
	// efficiency are exactly 1 on the e16 baseline.
	for _, c := range res.Cells {
		if c.Topology == "e16" && (c.Speedup != 1 || c.Efficiency != 1) {
			t.Errorf("baseline cell %s: speedup=%v efficiency=%v", c.Workload, c.Speedup, c.Efficiency)
		}
	}
}

func TestSweepOutputIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) [2]string {
		res, err := epiphany.Sweep(context.Background(), epiphany.SweepPlan{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{res.CSV(), string(js)}
	}
	first := render(1)
	if again := render(1); again != first {
		t.Fatal("sweep output not identical across consecutive runs")
	}
	if par := render(8); par != first {
		t.Fatal("sweep output differs between -workers=1 and -workers=8")
	}
}

// TestParseTopologyAxisErrors drives the topology grammar - the one
// spelling the sweep axis, job specs and run options share - through its
// error paths: malformed and out-of-range c2c overrides, degenerate
// meshes and grids, address-space overflow, and unknown spellings -
// which must carry an internal/names "did you mean" suggestion when a
// registered preset or grammar form is close. (Happy paths are
// exercised by every sweep test; these are the spellings that must be
// *rejected*, with a message a CLI user can act on.)
func TestParseTopologyAxisErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantErr string // substring of the error
	}{
		{"nope", "unknown topology spec"},
		{"", "unknown topology spec"},
		{"e65", `did you mean "e64" or "e16"?`},
		{"cluster4x4", `did you mean "cluster-4x4"`},
		{"gird=4x4/chip=8x8", `did you mean "grid=4x4/chip=8x8"?`},
		{"0x0", "invalid topology"},
		{"0x4", "invalid topology"},
		{"-1x4", "invalid topology"},
		{"4x-1", "invalid topology"},
		{"99x99", "does not fit"},
		{"grid=0x4/chip=4x4", "invalid topology"},
		{"grid=4x0", "invalid topology"},
		{"grid=4x4/chip=0x8", "invalid topology"},
		{"grid=8x8/chip=8x8", "does not fit"}, // 64 rows from origin row 32
		{"grid=axb", "ROWSxCOLS"},
		{"grid=4x4/chip=ax8", "ROWSxCOLS"},
		{"cluster-9x9", "does not fit"},
		{"cluster-axb", "ROWSxCOLS"},
		{"e64x3", "square count"},
		{"e64x0", "positive chip count"},
		{"e64x-4", "positive chip count"},
		{"e16xq", "positive chip count"},
		{"e64x25", "does not fit"}, // 5x5 chips of 8x8 = 40 rows
		{"e64/c2c=40", "must be BYTE:HOP"},
		{"e64/c2c=:", "bad c2c byte period"},
		{"e64/c2c=a:5", "bad c2c byte period"},
		{"e64/c2c=5:b", "bad c2c hop latency"},
		{"e64/c2c=-1:5", "bad c2c byte period"},
		{"e64/c2c=5:-1", "bad c2c hop latency"},
		{"e64/c2c=99999999999999999999:5", "bad c2c byte period"},
		{"cluster-2x2/c2c=4000000000:1", "out of range"},
		{"grid=2x2/chip=8x8/c2c=40", "must be BYTE:HOP"},
	}
	for _, tc := range cases {
		_, err := epiphany.ParseTopology(tc.in)
		if err == nil {
			t.Errorf("ParseTopology(%q) accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseTopology(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
		}
	}

	// Zero-valued c2c components are legal: they keep the calibrated
	// defaults rather than meaning "free".
	topo, err := epiphany.ParseTopology("cluster-2x2/c2c=0:0")
	if err != nil {
		t.Fatalf("zero c2c override rejected: %v", err)
	}
	if topo.Spec() != "cluster-2x2" {
		t.Errorf("zero override spelling %q, want the bare preset", topo.Spec())
	}
}

// TestParseDVFSPointSpellings pins the DVFS axis spelling, table-driven
// over accepted and rejected forms.
func TestParseDVFSPointSpellings(t *testing.T) {
	good := []struct {
		in   string
		want epiphany.OperatingPoint
	}{
		{"600MHz@1.0V", epiphany.OperatingPoint{FreqMHz: 600, VoltageV: 1.0}},
		{"600@1.0", epiphany.OperatingPoint{FreqMHz: 600, VoltageV: 1.0}},
		{"300mhz@0.80v", epiphany.OperatingPoint{FreqMHz: 300, VoltageV: 0.8}},
		{"712.5@1.05", epiphany.OperatingPoint{FreqMHz: 712.5, VoltageV: 1.05}},
	}
	for _, tc := range good {
		got, err := epiphany.ParseDVFSPoint(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDVFSPoint(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "600", "600MHz", "@1.0", "600@", "a@b", "0@1.0", "600@0", "-300@0.8", "300@-0.8", "nan@1.0", "inf@1.0", "600@nan"} {
		if _, err := epiphany.ParseDVFSPoint(bad); err == nil {
			t.Errorf("ParseDVFSPoint(%q) accepted", bad)
		}
	}
}

// TestEnergySweepDeterministic: a sweep with the power model and a DVFS
// axis renders bit-identical CSV/JSON across repeated runs and worker
// counts, like the time-domain sweep it extends.
func TestEnergySweepDeterministic(t *testing.T) {
	plan := epiphany.SweepPlan{
		Workloads: []string{"stencil-tuned", "stream-stencil"},
		Topos:     []string{"e64", "cluster-2x2"},
		Power:     "epiphany-iv-28nm",
		DVFS:      []string{"300@0.8", "600@1.0"},
	}
	render := func(workers int) [2]string {
		res, err := epiphany.Sweep(context.Background(), plan, workers)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{res.CSV(), string(js)}
	}
	first := render(1)
	if again := render(1); again != first {
		t.Fatal("energy sweep output not identical across consecutive runs")
	}
	if par := render(8); par != first {
		t.Fatal("energy sweep output differs between -workers=1 and -workers=8")
	}
	if !strings.Contains(first[0], "energy_j") || !strings.Contains(first[0], "300MHz@0.80V") {
		t.Fatalf("energy CSV lacks the energy columns or DVFS labels:\n%s", first[0])
	}
}

func TestSweepTableHasScalingColumns(t *testing.T) {
	res, err := epiphany.Sweep(context.Background(), epiphany.SweepPlan{
		Workloads: []string{"matmul-offchip"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Text()
	for _, col := range []string{"workload", "topology", "% compute", "% transfer", "speedup", "efficiency", "x-chip %"} {
		if !strings.Contains(text, col) {
			t.Errorf("sweep table lacks %q column:\n%s", col, text)
		}
	}
	md := res.Markdown()
	if !strings.HasPrefix(md, "| workload") || !strings.Contains(md, "| ---") {
		t.Errorf("markdown rendering malformed:\n%s", md)
	}
}
