package sweep

// The named-plan registry and the 1024-core scaling study. The paper
// evaluates one E16 and one E64 device; its scaling argument only
// becomes interesting past the chips Adapteva shipped, so the study
// plan rides the parameterized topology grammar out to an
// Epiphany-V-class grid=4x4/chip=8x8 board (1024 cores) and derives
// the weak/strong-scaling and GFLOPS/W table the paper never had.
// Plans are registered by name so the sweep CLI (-plan), the serve
// daemon (/v1/plans) and tests all resolve the identical grid.

import (
	"sort"

	"epiphany/internal/names"
)

// NamedPlan is a registered, reusable sweep plan: the grid plus the
// name the CLIs and the serve daemon resolve it by.
type NamedPlan struct {
	// Name is the registry key ("scaling-1024").
	Name string `json:"name"`
	// Description is the one-line summary listings show.
	Description string `json:"description"`
	// Plan is the grid itself, in un-normalized form: Sweep/Run
	// normalizes it like any hand-written plan.
	Plan Plan `json:"plan"`
}

var planRegistry = map[string]NamedPlan{}

// RegisterPlan adds a named plan to the registry, replacing any
// previous plan of the same name (latest registration wins, like the
// workload registry).
func RegisterPlan(p NamedPlan) { planRegistry[p.Name] = p }

// Plans returns every registered plan sorted by name.
func Plans() []NamedPlan {
	out := make([]NamedPlan, 0, len(planRegistry))
	for _, p := range planRegistry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PlanByName resolves a registered plan.
func PlanByName(name string) (NamedPlan, bool) {
	p, ok := planRegistry[name]
	return p, ok
}

// ResolvePlan is PlanByName with the canonical unknown-name error
// ("did you mean" plus the registered listing), for CLI flags and
// serve 400 bodies.
func ResolvePlan(name string) (NamedPlan, error) {
	if p, ok := planRegistry[name]; ok {
		return p, nil
	}
	regd := make([]string, 0, len(planRegistry))
	for n := range planRegistry {
		regd = append(regd, n)
	}
	sort.Strings(regd)
	return NamedPlan{}, names.Unknown("sweep plan", name, regd)
}

// scalingStudyWorkloads is the study's workload axis, frozen
// statically (not "every registered workload") so future workload
// registrations cannot silently grow the study grid and drift its
// golden. It is every built-in, including matmul-offchip: the
// schemeDouble rotation now hands out send credits (flagFwd*) instead
// of compute-done flags, so the off-chip DMA path is safe on
// 8x8-core chip groups and the former exclusion is retired.
var scalingStudyWorkloads = []string{
	"matmul-cannon",
	"matmul-offchip",
	"matmul-single",
	"matmul-summa",
	"stencil-cross",
	"stencil-direct",
	"stencil-naive",
	"stencil-replicated",
	"stencil-single",
	"stencil-tuned",
	"stream-stencil",
	"stream-stencil-deep",
}

// ScalingStudy returns the 1024-core scaling study plan: the full
// TopologyFitter-clamped workload suite swept from the paper's
// devices out to an Epiphany-V-class
// 1024-core mesh, with the 28nm power model attached at its nominal
// operating point so the derived table carries energy and GFLOPS/W
// next to speedup, parallel efficiency and crossing share. Normalize
// orders the axis by core count: e16 (16) -> cluster-2x2 / e64 (64)
// -> grid=2x4/chip=8x8 (512) -> grid=4x4/chip=8x8 (1024), with e16 as
// the strong-scaling baseline.
func ScalingStudy() Plan {
	return Plan{
		Workloads: append([]string(nil), scalingStudyWorkloads...),
		Topos:     []string{"e16", "e64", "cluster-2x2", "grid=2x4/chip=8x8", "grid=4x4/chip=8x8"},
		Baseline:  "e16",
		Power:     "epiphany-iv-28nm",
	}
}

func init() {
	RegisterPlan(NamedPlan{
		Name:        "scaling-1024",
		Description: "workload suite from e16 to a 1024-core grid=4x4/chip=8x8 mesh: speedup, efficiency, crossing share, energy",
		Plan:        ScalingStudy(),
	})
}
