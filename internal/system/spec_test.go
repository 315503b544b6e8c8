package system

import (
	"strings"
	"testing"
)

// TestParseTopologySpecGrammar drives every form of the grammar
// through the resolver and checks the geometry and canonical name it
// produces.
func TestParseTopologySpecGrammar(t *testing.T) {
	cases := []struct {
		spec                       string
		name                       string
		gridR, gridC, chipR, chipC int
	}{
		// Presets resolve to themselves.
		{"e16", "e16", 1, 1, 4, 4},
		{"e64", "e64", 1, 1, 8, 8},
		{"cluster-2x2", "cluster-2x2", 2, 2, 4, 4},
		// Ad-hoc single-chip meshes stay unnamed.
		{"4x8", "", 1, 1, 4, 8},
		{"2x3", "", 1, 1, 2, 3},
		// grid= boards; /chip= defaults to the 8x8 E64-class chip.
		{"grid=4x4/chip=8x8", "grid=4x4/chip=8x8", 4, 4, 8, 8},
		{"grid=2x4", "grid=2x4/chip=8x8", 2, 4, 8, 8},
		{"grid=1x1/chip=4x4", "grid=1x1/chip=4x4", 1, 1, 4, 4},
		{"grid=3x2/chip=2x4", "grid=3x2/chip=2x4", 3, 2, 2, 4},
		// cluster-RxC: boards of 4x4 E16 chips.
		{"cluster-4x4", "cluster-4x4", 4, 4, 4, 4},
		{"cluster-1x2", "cluster-1x2", 1, 2, 4, 4},
		// e16xN / e64xN: square chip arrays.
		{"e16x4", "e16x4", 2, 2, 4, 4},
		{"e64x16", "e64x16", 4, 4, 8, 8},
		{"e64x1", "e64x1", 1, 1, 8, 8},
	}
	for _, tc := range cases {
		topo, err := ParseTopologySpec(tc.spec)
		if err != nil {
			t.Errorf("ParseTopologySpec(%q): %v", tc.spec, err)
			continue
		}
		if topo.Name != tc.name ||
			topo.ChipGridRows != tc.gridR || topo.ChipGridCols != tc.gridC ||
			topo.CoreRows != tc.chipR || topo.CoreCols != tc.chipC {
			t.Errorf("ParseTopologySpec(%q) = %+v, want name %q grid %dx%d chip %dx%d",
				tc.spec, topo, tc.name, tc.gridR, tc.gridC, tc.chipR, tc.chipC)
		}
	}

	// The /c2c= suffix applies to any base form.
	topo, err := ParseTopologySpec("grid=2x2/chip=4x4/c2c=40:600")
	if err != nil {
		t.Fatal(err)
	}
	if topo.C2CBytePeriod != 40 || topo.C2CHopLatency != 600 {
		t.Errorf("c2c override not applied: %+v", topo)
	}
	if topo.Spec() != "grid=2x2/chip=4x4/c2c=40:600" {
		t.Errorf("Spec() = %q, want the canonical spelling back", topo.Spec())
	}
}

// TestParseTopologySpecErrors is the error-path table: zero and
// negative dimensions, address-space overflow past the 64x64 mesh
// ceiling, malformed dimension pairs and /c2c= payloads, non-square
// chip counts, near-miss spellings - which must carry a "did you
// mean" suggestion - and the removed /shards= suffix, which must name
// its removal.
func TestParseTopologySpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string
	}{
		{"", "unknown topology spec"},
		{"nope", "unknown topology spec"},
		{"e65", `did you mean "e64" or "e16"`},
		{"cluster4x4", `did you mean "cluster-4x4"`},
		{"E64", `did you mean "e64"`}, // case-sensitive registry, case-insensitive suggestions
		{"grid=0x4", "invalid topology"},
		{"grid=4x-1/chip=8x8", "invalid topology"},
		{"grid=4x4/chip=0x0", "invalid topology"},
		{"0x0", "invalid topology"},
		{"grid=8x8/chip=8x8", "does not fit"}, // 64 core rows from mesh origin row 32
		{"grid=1x8/chip=8x8", "does not fit"}, // 64 core cols from origin col 8
		{"33x1", "does not fit"},
		{"cluster-9x9", "does not fit"},
		{"e64x25", "does not fit"},
		{"grid=axb", "ROWSxCOLS"},
		{"grid=4", "ROWSxCOLS"},
		{"grid=4x4/chip=8", "ROWSxCOLS"},
		{"cluster-a", "ROWSxCOLS"},
		{"e64x3", "square count"},
		{"e16x0", "positive chip count"},
		{"e64xfour", "positive chip count"},
		{"e64/c2c=40", "must be BYTE:HOP"},
		{"e64/c2c=a:5", "bad c2c byte period"},
		{"e64/c2c=5:b", "bad c2c hop latency"},
		{"e64/c2c=4000000000:1", "out of range"},
		{"cluster-2x2/shards=1", errShardsRemoved.Error()},
		{"e64x16/shards=4", errShardsRemoved.Error()},
	}
	for _, tc := range cases {
		_, err := ParseTopologySpec(tc.spec)
		if err == nil {
			t.Errorf("ParseTopologySpec(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseTopologySpec(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestTopologySpecRoundTrip: for every valid grid geometry under the
// address-space ceiling, Spec renders a spelling that parses back to
// the identical Topology - the property that makes canonical specs
// usable as cache keys and axis labels.
func TestTopologySpecRoundTrip(t *testing.T) {
	chips := [][2]int{{4, 4}, {8, 8}, {2, 4}, {1, 8}, {3, 5}}
	for _, chip := range chips {
		for gr := 1; gr <= 8; gr++ {
			for gc := 1; gc <= 8; gc++ {
				topo := Topology{
					ChipGridRows: gr, ChipGridCols: gc,
					CoreRows: chip[0], CoreCols: chip[1],
				}
				if topo.Validate() != nil {
					continue // past the mesh ceiling; rejection is tested above
				}
				spec := topo.Spec()
				back, err := ParseTopologySpec(spec)
				if err != nil {
					t.Fatalf("ParseTopologySpec(%q) (from %+v): %v", spec, topo, err)
				}
				// An unnamed topology comes back with the spec as its
				// canonical name; geometry must survive exactly.
				if back.ChipGridRows != gr || back.ChipGridCols != gc ||
					back.CoreRows != chip[0] || back.CoreCols != chip[1] {
					t.Fatalf("round-trip of %q changed geometry: %+v", spec, back)
				}
				if again := back.Spec(); again != spec && back.Name != spec {
					t.Fatalf("Spec round-trip not canonical: %q -> %q", spec, again)
				}
			}
		}
	}

	// Canonical specs are fixpoints: parse(spec).Spec() == spec for
	// one spelling of every grammar form.
	for _, spec := range []string{
		"e16", "e64", "cluster-2x2", "4x8",
		"grid=4x4/chip=8x8", "cluster-4x4", "e16x4", "e64x16",
		"grid=2x2/chip=4x4/c2c=40:600", "e64/c2c=40:600",
	} {
		topo, err := ParseTopologySpec(spec)
		if err != nil {
			t.Fatalf("ParseTopologySpec(%q): %v", spec, err)
		}
		if topo.Spec() != spec {
			t.Errorf("canonical spec not a fixpoint: %q -> %q", spec, topo.Spec())
		}
	}
}

// FuzzParseTopoSpec fuzzes the grammar: the parser must never panic,
// and every accepted spec must re-render to a canonical spelling that
// parses back to the identical board (parse/print/parse fixpoint).
func FuzzParseTopoSpec(f *testing.F) {
	for _, seed := range []string{
		"e16", "e64", "cluster-2x2", "4x8", "grid=4x4/chip=8x8",
		"grid=2x4", "cluster-4x4", "e16x4", "e64x16",
		"cluster-2x2/c2c=40:600", "grid=8x8/chip=8x8", "e65", "",
		"grid=axb", "e64x3", "e64/c2c=a:b", "grid=-1x4/chip=0x0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopologySpec(spec)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", spec, err)
		}
		canon := topo.Spec()
		back, err := ParseTopologySpec(canon)
		if err != nil {
			t.Fatalf("canonical spelling %q of accepted spec %q rejected: %v", canon, spec, err)
		}
		if back != topo {
			t.Fatalf("parse/print/parse not a fixpoint: %q -> %+v -> %q -> %+v", spec, topo, canon, back)
		}
		if again := back.Spec(); again != canon {
			t.Fatalf("canonical spelling unstable: %q -> %q", canon, again)
		}
	})
}

// TestNewTopologyAllocsPerCore is the construction allocation
// regression: building a board must stay near-O(cores) in allocations
// as the mesh grows, so the allocs-per-core at 16x16 (4 chips) and
// 32x32 (16 chips, the 1024-core study board) may not exceed ~2x the
// e64 single-chip baseline. A super-linear construction path (per-pair
// routing tables, quadratic link maps) trips this immediately.
func TestNewTopologyAllocsPerCore(t *testing.T) {
	perCore := func(spec string) float64 {
		topo, err := ParseTopologySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			sinkSys = NewTopology(topo)
		})
		return allocs / float64(topo.NumCores())
	}
	base := perCore("e64") // 8x8, 64 cores
	if base <= 0 {
		t.Fatalf("e64 construction reports %v allocs per core", base)
	}
	for _, spec := range []string{"grid=2x2/chip=8x8", "grid=4x4/chip=8x8"} {
		if pc := perCore(spec); pc > 2*base {
			t.Errorf("%s allocates %.1f per core, more than 2x the e64 baseline %.1f", spec, pc, base)
		}
	}
}
