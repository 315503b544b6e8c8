package system

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"epiphany/internal/names"
	"epiphany/internal/sim"
)

// This file is the parameterized topology grammar: one textual spelling
// for every board the simulator can build, parsed by a single resolver
// that the public API (ParseTopology), the sweep axis (sweep.Plan.Topos),
// the serve daemon's JobSpec/SweepPlan and all the CLIs share. The
// grammar:
//
//	e16 | e64 | cluster-2x2          preset boards (TopologyByName)
//	RxC                              ad-hoc single-chip mesh ("4x8")
//	grid=RxC[/chip=RxC]              R x C chips of chip-RxC cores each;
//	                                 /chip= defaults to 8x8 (E64 chips)
//	cluster-RxC                      R x C grid of 4x4 chips (E16-based
//	                                 Parallella clusters, generalizing
//	                                 the cluster-2x2 preset)
//	e16xN | e64xN                    N chips of that device in a square
//	                                 chip grid; N must be a square count
//	                                 (1, 4, 9, 16, ...)
//	<any>/c2c=BYTE:HOP               chip-to-chip eLink timing override
//
// The /shards=N suffix of earlier releases named an event-engine
// partition that no longer exists; every board runs one event heap, so
// a spec carrying it is refused (errShardsRemoved) rather than quietly
// read as something else.
//
// Parsed specs are canonical: dimensions re-render without redundant
// zeros and grid= always carries its /chip= part, so Spec is a fixpoint
// of ParseSpec (ParseSpec(t.Spec()).Spec() == t.Spec()). The canonical
// spelling doubles as the generated Topology's Name, which is what the
// sweep axis keys, the serve cache fingerprints and the Runner's board
// pool identify boards by.

// defaultChipRows/Cols are the chip dimensions a bare grid=RxC spec
// gets: E64-class 8x8 chips, so grid=4x4 reads as "a 4x4 board of the
// paper's devices" (the Epiphany-V-class 1024-core mesh).
const (
	defaultChipRows = 8
	defaultChipCols = 8
)

// clusterChipRows/Cols are the chip dimensions of the cluster-RxC
// alias: 4x4 E16 chips, matching the cluster-2x2 preset it generalizes.
const (
	clusterChipRows = 4
	clusterChipCols = 4
)

// errShardsRemoved refuses the removed /shards= suffix.
var errShardsRemoved = errors.New("epiphany: the /shards= engine partition was removed; every board runs one event heap")

// ParseTopologySpec parses the topology grammar above into a validated
// Topology, including the optional /c2c=BYTE:HOP timing-override
// suffix. Preset names resolve to the presets themselves; every other
// spelling yields a Topology whose Name is the spec's canonical form.
// Near-miss spellings get a "did you mean" suggestion naming the
// closest preset or grammar form.
func ParseTopologySpec(spec string) (Topology, error) {
	if strings.Contains(spec, "/shards=") {
		return Topology{}, errShardsRemoved
	}
	base, c2c, hasC2C := strings.Cut(spec, "/c2c=")
	t, err := parseBaseSpec(base)
	if err != nil {
		return Topology{}, err
	}
	if hasC2C {
		bp, hl, err := ParseC2C(c2c)
		if err != nil {
			return Topology{}, fmt.Errorf("epiphany: topology %q: %v", spec, err)
		}
		t = t.WithC2C(bp, hl)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// ParseC2C parses the BYTE:HOP payload of a /c2c= override into the
// chip-to-chip byte period and hop latency, in sim.Time units. Zero
// components are legal: they keep the calibrated defaults.
func ParseC2C(s string) (bytePeriod, hopLatency sim.Time, err error) {
	bp, hl, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("c2c override must be BYTE:HOP")
	}
	b, err := strconv.ParseUint(bp, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad c2c byte period: %v", err)
	}
	h, err := strconv.ParseUint(hl, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad c2c hop latency: %v", err)
	}
	return sim.Time(b), sim.Time(h), nil
}

// parseBaseSpec parses the grammar minus the /c2c= suffix. The returned
// Topology is not yet validated (ParseTopologySpec does that), so zero
// and negative dimensions surface as Validate's "invalid topology"
// error rather than a bespoke one per spelling.
func parseBaseSpec(base string) (Topology, error) {
	if t, ok := TopologyByName(base); ok {
		return t, nil
	}
	switch {
	case strings.HasPrefix(base, "grid="):
		gridPart, chipPart, hasChip := strings.Cut(base[len("grid="):], "/chip=")
		gr, gc, err := parseDims(gridPart)
		if err != nil {
			return Topology{}, fmt.Errorf("epiphany: topology %q: grid=RxC wants the chip grid as ROWSxCOLS: %v", base, err)
		}
		cr, cc := defaultChipRows, defaultChipCols
		if hasChip {
			if cr, cc, err = parseDims(chipPart); err != nil {
				return Topology{}, fmt.Errorf("epiphany: topology %q: /chip=RxC wants the per-chip cores as ROWSxCOLS: %v", base, err)
			}
		}
		return gridTopology(gr, gc, cr, cc), nil
	case strings.HasPrefix(base, "cluster-"):
		gr, gc, err := parseDims(base[len("cluster-"):])
		if err != nil {
			return Topology{}, fmt.Errorf("epiphany: topology %q: cluster-RxC wants the board grid as ROWSxCOLS: %v", base, err)
		}
		t := gridTopology(gr, gc, clusterChipRows, clusterChipCols)
		t.Name = fmt.Sprintf("cluster-%dx%d", gr, gc)
		return t, nil
	case strings.HasPrefix(base, "e16x"), strings.HasPrefix(base, "e64x"):
		side := 4
		if base[1] == '6' {
			side = 8
		}
		n, err := strconv.Atoi(base[len("e16x"):])
		if err != nil || n <= 0 {
			return Topology{}, fmt.Errorf("epiphany: topology %q: %sN wants a positive chip count", base, base[:4])
		}
		g := intSqrt(n)
		if g*g != n {
			return Topology{}, fmt.Errorf("epiphany: topology %q: %sN arranges N chips in a square grid, so N must be a square count (1, 4, 9, 16, ...); spell rectangular boards grid=RxC/chip=%dx%d",
				base, base[:4], side, side)
		}
		t := gridTopology(g, g, side, side)
		t.Name = fmt.Sprintf("%s%d", base[:4], n)
		return t, nil
	}
	if r, c, err := parseDims(base); err == nil {
		return SingleChip(r, c), nil
	}
	return Topology{}, unknownSpec(base)
}

// gridTopology builds the named parameterized board, resolving the
// canonical grid= spelling as its Name. A 1x1 grid is a genuine
// single-chip device, but keeps its grid= name: the parameterized path
// is pinned against the preset goldens by the conformance harness, not
// silently aliased onto them.
func gridTopology(gridRows, gridCols, chipRows, chipCols int) Topology {
	return Topology{
		Name:         fmt.Sprintf("grid=%dx%d/chip=%dx%d", gridRows, gridCols, chipRows, chipCols),
		ChipGridRows: gridRows, ChipGridCols: gridCols,
		CoreRows: chipRows, CoreCols: chipCols,
	}
}

// Spec renders the topology's canonical grammar spelling: its Name when
// it has one (presets and every ParseTopologySpec product), otherwise
// the geometry ("RxC" single-chip, "grid=RxC/chip=RxC" boards), plus
// the /c2c= suffix when the link timing is overridden. For topologies
// expressible in the grammar, ParseTopologySpec(t.Spec()) reproduces t.
func (t Topology) Spec() string {
	base := t.Name
	if base == "" {
		if t.MultiChip() || t.ChipGridRows > 1 || t.ChipGridCols > 1 {
			base = fmt.Sprintf("grid=%dx%d/chip=%dx%d", t.ChipGridRows, t.ChipGridCols, t.CoreRows, t.CoreCols)
		} else {
			base = fmt.Sprintf("%dx%d", t.CoreRows, t.CoreCols)
		}
	}
	if t.C2CBytePeriod > 0 || t.C2CHopLatency > 0 {
		base += fmt.Sprintf("/c2c=%d:%d", t.C2CBytePeriod, t.C2CHopLatency)
	}
	return base
}

// parseDims parses a "RxC" dimension pair. Range checks are left to
// Topology.Validate.
func parseDims(s string) (rows, cols int, err error) {
	r, c, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("want ROWSxCOLS")
	}
	rows, errR := strconv.Atoi(r)
	cols, errC := strconv.Atoi(c)
	if errR != nil || errC != nil {
		return 0, 0, fmt.Errorf("want integer ROWSxCOLS, got %q", s)
	}
	return rows, cols, nil
}

// intSqrt returns the integer square root of n (floor). The float
// seed plus division-form adjustments keep it exact and O(1) for any
// int - squaring the candidate could overflow for adversarial chip
// counts like e64x9223372036854775807.
func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	g := int(math.Sqrt(float64(n)))
	for g > 0 && g > n/g {
		g--
	}
	for g+1 <= n/(g+1) {
		g++
	}
	return g
}

// specCandidates are the spellings "did you mean" measures typos
// against: every preset plus one representative of each grammar form.
func specCandidates() []string {
	out := make([]string, 0, len(Topologies())+4)
	for _, t := range Topologies() {
		out = append(out, t.Name)
	}
	return append(out, "cluster-4x4", "e16x4", "e64x16", "grid=4x4/chip=8x8")
}

// unknownSpec is the error an unrecognized spelling gets: a suggestion
// when something is close, and the whole grammar either way.
func unknownSpec(base string) error {
	return fmt.Errorf("epiphany: unknown topology spec %q%s; accepted: presets (e16, e64, cluster-2x2), RxC single-chip meshes, grid=RxC[/chip=RxC] boards, cluster-RxC, e16xN/e64xN chip arrays, all with an optional /c2c=BYTE:HOP suffix",
		base, names.DidYouMean(base, specCandidates()))
}
