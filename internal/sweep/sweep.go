// Package sweep runs declarative experiment grids over the simulator:
// a Plan names a set of registered workloads, a set of fabric
// topologies spelled in the topology grammar (presets, ad-hoc meshes,
// chip grids, chip-to-chip timing overrides) and optionally a set of
// seeds; Expand turns it into the cartesian job grid in a canonical
// order; Run executes the grid on the pooled
// workload.Runner and derives the paper-style scaling columns
// (speedup against a named baseline topology, parallel efficiency,
// chip-boundary crossing share) from the per-cell Metrics.
//
// Everything is deterministic end to end: the expansion order is a
// pure function of the axis sets (not of the order they were written
// in), every simulation is bit-deterministic, and the renderers in
// this package format cells identically on every call - so a sweep's
// CSV output is bit-identical across repeated runs and across worker
// counts, and can itself be checked in as a golden file.
package sweep

import (
	"fmt"
	"slices"
	"sort"

	"epiphany/internal/power"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// Plan declares one experiment sweep: the axes of the grid and the
// baseline cell the derived columns compare against. The zero Plan is
// usable - it sweeps every registered workload over the preset
// topologies at each workload's default seed, with the smallest
// topology as baseline.
type Plan struct {
	// Workloads is the workload axis, each value spelled in the
	// workload spec grammar (workload.Parse: "stencil-tuned",
	// "matmul-offchip/m=512/n=512/k=512"); empty means every registered
	// workload. Normalize rewrites every value into its canonical
	// spelling, so equal configurations key and fingerprint identically
	// however they were written.
	Workloads []string `json:"workloads,omitempty"`
	// Topos is the topology axis, each value spelled in the topology
	// grammar (system.ParseTopologySpec: "e64", "4x8",
	// "grid=4x4/chip=8x8", "cluster-2x2/c2c=40:600"); empty
	// means the presets in scaling order (e16, e64, cluster-2x2).
	// Normalize rewrites every value into its canonical spelling
	// (Topology.Spec), so equal boards key, fingerprint and pool
	// identically however they were written.
	Topos []string `json:"topos,omitempty"`
	// Seeds rebase each workload's deterministic inputs (the workloads
	// must implement Reseeder); empty runs each workload once at its
	// registered default seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Baseline is the topology the speedup and efficiency columns
	// compare against, in any spelling of a value on the Topos axis;
	// empty picks the first topology in canonical (scaling) order.
	Baseline string `json:"baseline,omitempty"`
	// Power names the power-model preset (power.Models) applied to
	// every cell; empty runs a time-domain-only sweep whose output is
	// byte-identical to a sweep without energy accounting at all.
	Power string `json:"power,omitempty"`
	// DVFS is the operating-point axis, each value spelled
	// "FREQ[MHz]@VOLT[V]" or "nominal"; it requires Power. Empty with
	// Power set means the model's nominal point only. Each point is
	// executed as its own grid cell (one simulation per cell, like
	// every other axis, keeping the grid machinery uniform); the cycle
	// domain is frequency-invariant, so those runs produce identical
	// time-domain metrics and differ only in the derived energy and
	// wall-clock columns - the cost of the uniformity is re-simulating
	// a run whose outcome is already known, acceptable at this
	// simulator's milliseconds-per-cell scale.
	DVFS []string `json:"dvfs,omitempty"`
}

// Cell is one point of the expanded grid. Seed is nil when the
// workload's registered default seed applies; DVFS is empty when the
// plan has no power model.
type Cell struct {
	Workload string  `json:"workload"`
	Topo     string  `json:"topo"` // canonical topology spec
	DVFS     string  `json:"dvfs,omitempty"`
	Seed     *uint64 `json:"seed,omitempty"`
}

// Normalize resolves the plan's defaults and canonicalizes its axes:
// workloads are filled from the registry when empty, otherwise parsed
// by the workload spec grammar, rewritten into their canonical spelling,
// sorted and deduplicated; topologies default to the presets,
// are parsed once by the topology grammar (catching unknown spellings
// and invalid geometry), rewritten into their canonical spelling, and
// sorted into scaling order (core count, then spelling) with duplicates
// dropped; seeds are sorted and deduplicated; the baseline is defaulted
// to the first topology, otherwise canonicalized and checked to be on
// the axis. The canonical form is what makes expansion order
// independent of how the plan was written.
func (p Plan) Normalize() (Plan, error) {
	if len(p.Workloads) == 0 {
		p.Workloads = workload.Names()
	} else {
		canon := make([]string, len(p.Workloads))
		for i, spec := range p.Workloads {
			w, err := workload.Parse(spec)
			if err != nil {
				return p, err
			}
			canon[i] = w.Name()
		}
		slices.Sort(canon)
		p.Workloads = slices.Compact(canon)
	}
	if len(p.Topos) == 0 {
		for _, st := range system.Topologies() {
			p.Topos = append(p.Topos, st.Name)
		}
	}
	type keyed struct {
		key   string
		cores int
	}
	ks := make([]keyed, 0, len(p.Topos))
	seen := make(map[string]bool, len(p.Topos))
	for _, spec := range p.Topos {
		st, err := system.ParseTopologySpec(spec)
		if err != nil {
			return p, err
		}
		key := st.Spec()
		if seen[key] {
			continue
		}
		seen[key] = true
		ks = append(ks, keyed{key: key, cores: st.NumCores()})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].cores != ks[j].cores {
			return ks[i].cores < ks[j].cores
		}
		return ks[i].key < ks[j].key
	})
	p.Topos = make([]string, len(ks))
	for i, k := range ks {
		p.Topos[i] = k.key
	}
	if len(p.Seeds) > 0 {
		seeds := slices.Clone(p.Seeds)
		slices.Sort(seeds)
		p.Seeds = slices.Compact(seeds)
	}
	if p.Baseline == "" {
		p.Baseline = p.Topos[0]
	} else {
		st, err := system.ParseTopologySpec(p.Baseline)
		if err != nil {
			return p, fmt.Errorf("epiphany: baseline %q is not on the sweep's topology axis: %w", p.Baseline, err)
		}
		if !seen[st.Spec()] {
			return p, fmt.Errorf("epiphany: baseline %q is not on the sweep's topology axis", p.Baseline)
		}
		p.Baseline = st.Spec() // the axis value's spelling, so Baselines matches it
	}
	if err := p.normalizeDVFS(); err != nil {
		return p, err
	}
	return p, nil
}

// Baselines returns, for each cell, the index in cells of its baseline
// cell - the same workload, DVFS point and seed on the plan's baseline
// topology (a baseline cell is its own) - or -1 when cells hold none.
// Scaling is always compared at the same operating point, so the DVFS
// axis reads as frequency scaling and the topology axis as strong
// scaling.
func (p Plan) Baselines(cells []Cell) []int {
	type key struct{ workload, dvfs, seed string }
	at := make(map[key]int)
	for i, c := range cells {
		if c.Topo == p.Baseline {
			at[key{c.Workload, c.DVFS, seedLabel(c.Seed)}] = i
		}
	}
	out := make([]int, len(cells))
	for i, c := range cells {
		b, ok := at[key{c.Workload, c.DVFS, seedLabel(c.Seed)}]
		if !ok {
			b = -1
		}
		out[i] = b
	}
	return out
}

// normalizeDVFS validates the energy axes and canonicalizes the
// operating-point labels: each spelling is resolved against the power
// model, re-rendered in canonical form, deduplicated and sorted by
// ascending frequency (voltage breaking ties) - so like the other axes,
// the expansion order is a function of the point set, not of how it was
// written. A plan with a power model but no explicit points gets the
// model's nominal point.
func (p *Plan) normalizeDVFS() error {
	if p.Power == "" {
		if len(p.DVFS) > 0 {
			return fmt.Errorf("epiphany: DVFS axis %v requires a power model (Plan.Power)", p.DVFS)
		}
		return nil
	}
	m, err := power.ResolveModel(p.Power)
	if err != nil {
		return err
	}
	if len(p.DVFS) == 0 {
		p.DVFS = []string{m.Nominal.String()}
		return nil
	}
	pts := make([]power.OperatingPoint, 0, len(p.DVFS))
	seen := make(map[power.OperatingPoint]bool, len(p.DVFS))
	for _, label := range p.DVFS {
		op, err := m.Point(label)
		if err != nil {
			return err
		}
		if seen[op] {
			continue
		}
		seen[op] = true
		pts = append(pts, op)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].FreqMHz != pts[j].FreqMHz {
			return pts[i].FreqMHz < pts[j].FreqMHz
		}
		return pts[i].VoltageV < pts[j].VoltageV
	})
	p.DVFS = make([]string, len(pts))
	for i, op := range pts {
		p.DVFS[i] = op.String()
	}
	return nil
}

// Expand returns the plan's cartesian job grid - every workload at
// every topology at every operating point at every seed - in the plan's
// axis order: workloads outermost, then topologies, then DVFS points,
// seeds innermost. Called on a normalized plan the order is canonical:
// permuting the values inside any axis of the original plan yields the
// identical expansion. Without a power model the DVFS axis collapses to
// a single empty label and the expansion is identical to an energy-free
// plan's.
func (p Plan) Expand() []Cell {
	seeds := make([]*uint64, 0, max(len(p.Seeds), 1))
	if len(p.Seeds) == 0 {
		seeds = append(seeds, nil)
	} else {
		for _, s := range p.Seeds {
			v := s
			seeds = append(seeds, &v)
		}
	}
	dvfs := p.DVFS
	if len(dvfs) == 0 {
		dvfs = []string{""}
	}
	cells := make([]Cell, 0, len(p.Workloads)*len(p.Topos)*len(dvfs)*len(seeds))
	for _, w := range p.Workloads {
		for _, t := range p.Topos {
			for _, d := range dvfs {
				for _, s := range seeds {
					cells = append(cells, Cell{Workload: w, Topo: t, DVFS: d, Seed: s})
				}
			}
		}
	}
	return cells
}
