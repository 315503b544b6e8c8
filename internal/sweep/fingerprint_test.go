package sweep

import (
	"encoding/hex"
	"testing"
)

// fp is Fingerprint with errors fatal: the spec under test must always
// normalize.
func fp(t *testing.T, p Plan) string {
	t.Helper()
	got, err := p.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint(%+v): %v", p, err)
	}
	if len(got) != 64 {
		t.Fatalf("Fingerprint length %d, want 64 hex chars", len(got))
	}
	if _, err := hex.DecodeString(got); err != nil {
		t.Fatalf("Fingerprint %q is not hex: %v", got, err)
	}
	return got
}

// TestFingerprintSpellingInvariance: the digest addresses the canonical
// experiment, not its spelling - permuted, duplicated and defaulted
// axes hash identically.
func TestFingerprintSpellingInvariance(t *testing.T) {
	base := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon"},
		Topos:     []string{"e16", "e64"},
		Seeds:     []uint64{1, 2},
	}
	want := fp(t, base)

	permuted := Plan{
		Workloads: []string{"matmul-cannon", "stencil-tuned"},
		Topos:     []string{"e64", "e16"},
		Seeds:     []uint64{2, 1},
	}
	if got := fp(t, permuted); got != want {
		t.Errorf("axis-permuted plan fingerprints differ: %s vs %s", got, want)
	}

	duplicated := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon", "stencil-tuned"},
		Topos:     []string{"e16", "e64", "e16"},
		Seeds:     []uint64{1, 2, 2},
	}
	if got := fp(t, duplicated); got != want {
		t.Errorf("duplicate-laden plan fingerprints differ: %s vs %s", got, want)
	}

	// The default baseline (first topology in scaling order) hashes the
	// same whether it was spelled out or left implicit.
	explicitBaseline := base
	explicitBaseline.Baseline = "e16"
	if got := fp(t, explicitBaseline); got != want {
		t.Errorf("explicit default baseline changes the fingerprint")
	}

	// DVFS spellings canonicalize: "600@1.0" and "600MHz@1.00V" are the
	// same operating point.
	a := Plan{Workloads: []string{"stencil-tuned"}, Topos: []string{"e64"},
		Power: "epiphany-iv-28nm", DVFS: []string{"600@1.0", "300@0.85"}}
	b := Plan{Workloads: []string{"stencil-tuned"}, Topos: []string{"e64"},
		Power: "epiphany-iv-28nm", DVFS: []string{"300MHz@0.85V", "600MHz@1.00V"}}
	if fp(t, a) != fp(t, b) {
		t.Errorf("canonically equal DVFS axes fingerprint differently")
	}

	// A workload spec restating its preset is the preset: same plan and
	// cell fingerprint as the plain name. Other spellings of one
	// override canonicalize to one address too.
	for _, pair := range [][2]string{
		{"stencil-tuned", "stencil-tuned/rows=40"},
		{"stencil-tuned", "stencil-tuned/group=2x2/comm=true/shape=plus"},
		{"matmul-cannon", "matmul-cannon/algo=cannon"},
		{"stencil-tuned/rows=20", "stencil-tuned/rows=020/iters=10"},
	} {
		plain := Plan{Workloads: []string{pair[0]}, Topos: []string{"e64"}, Seeds: []uint64{3}}
		spelled := Plan{Workloads: []string{pair[1]}, Topos: []string{"e64"}, Seeds: []uint64{3}}
		if fp(t, plain) != fp(t, spelled) {
			t.Errorf("plans over %q and %q fingerprint differently", pair[0], pair[1])
		}
		np, _ := plain.Normalize()
		ns, _ := spelled.Normalize()
		if np.CellFingerprint(np.Expand()[0]) != ns.CellFingerprint(ns.Expand()[0]) {
			t.Errorf("cells of %q and %q fingerprint differently", pair[0], pair[1])
		}
	}
}

// TestFingerprintDistinguishesEveryAxis: changing any single axis value
// - workload, topology, c2c byte period, c2c hop latency, power model,
// DVFS point, seed, baseline - changes the digest.
func TestFingerprintDistinguishesEveryAxis(t *testing.T) {
	base := Plan{
		Workloads: []string{"stencil-tuned"},
		Topos:     []string{"e16", "cluster-2x2"},
		Seeds:     []uint64{1},
		Power:     "epiphany-iv-28nm",
		DVFS:      []string{"600@1.0"},
	}
	seen := map[string]string{fp(t, base): "base"}
	variants := map[string]Plan{}

	v := base
	v.Workloads = []string{"matmul-cannon"}
	variants["workload"] = v

	v = base
	v.Topos = []string{"e64", "cluster-2x2"}
	variants["topology"] = v

	v = base
	v.Topos = []string{"e16", "cluster-2x2/c2c=40:0"}
	variants["c2c byte period"] = v

	v = base
	v.Topos = []string{"e16", "cluster-2x2/c2c=0:600"}
	variants["c2c hop latency"] = v

	v = base
	v.Power = "epiphany-iii-65nm"
	v.DVFS = nil // the IV-28nm ladder's points don't all exist on the III model
	variants["power model"] = v

	v = base
	v.DVFS = []string{"300@0.85"}
	variants["dvfs point"] = v

	v = base
	v.DVFS = []string{"600@1.0", "300@0.85"}
	variants["dvfs axis size"] = v

	v = base
	v.Seeds = []uint64{2}
	variants["seed"] = v

	v = base
	v.Seeds = nil // default seed is a distinct spec from seed 1
	variants["default seed"] = v

	v = base
	v.Baseline = "cluster-2x2"
	variants["baseline"] = v

	for axis, p := range variants {
		got := fp(t, p)
		if prev, dup := seen[got]; dup {
			t.Errorf("axis %q collides with %q: %s", axis, prev, got)
		}
		seen[got] = axis
	}
}

// TestFingerprintStable: the digest is a pure function - identical
// across calls - and errors on a plan that cannot normalize.
func TestFingerprintStable(t *testing.T) {
	p := Plan{Workloads: []string{"stream-stencil"}}
	if fp(t, p) != fp(t, p) {
		t.Error("fingerprint not stable across calls")
	}
	if _, err := (Plan{Workloads: []string{"no-such-workload"}}).Fingerprint(); err == nil {
		t.Error("unnormalizable plan fingerprinted")
	}
}

// TestCellFingerprint: each expanded cell of a plan has a distinct
// stable address; the same cell reached from different plans (different
// grids, same cell spec) shares one, and the power model participates.
func TestCellFingerprint(t *testing.T) {
	p, err := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon"},
		Topos:     []string{"e16", "e64"},
		Seeds:     []uint64{1, 2},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cells := p.Expand()
	seen := map[string]Cell{}
	for _, c := range cells {
		id := p.CellFingerprint(c)
		if len(id) != 64 {
			t.Fatalf("cell fingerprint length %d", len(id))
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("cells %+v and %+v share fingerprint %s", prev, c, id)
		}
		seen[id] = c
		if p.CellFingerprint(c) != id {
			t.Fatal("cell fingerprint not stable")
		}
	}

	// A 1-cell plan addressing the same spec produces the same digest as
	// the big grid's corresponding cell - the property that lets a cache
	// deduplicate across overlapping sweeps.
	small, err := Plan{
		Workloads: []string{"stencil-tuned"},
		Topos:     []string{"e16"},
		Seeds:     []uint64{1},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	smallCell := small.Expand()[0]
	if _, ok := seen[small.CellFingerprint(smallCell)]; !ok {
		t.Error("identical cell spec from a different plan has a different fingerprint")
	}

	// The power model is part of the cell identity even though it is a
	// plan-level field.
	metered := p
	metered.Power = "epiphany-iv-28nm"
	if metered.CellFingerprint(cells[0]) == p.CellFingerprint(cells[0]) {
		t.Error("power model does not participate in the cell fingerprint")
	}
}
