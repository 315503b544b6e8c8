package epiphany

import (
	"context"

	"epiphany/internal/sweep"
)

// The experiment-sweep API. A SweepPlan declares a grid - workload set
// x topology set x seed set, each topology spelled in the grammar
// ParseTopology accepts, optionally crossed with a power model's DVFS
// operating points (ParseDVFSPoint spells them) - and Sweep executes
// every cell on the concurrent batch Runner, deriving the paper-style
// scaling columns (speedup against a named baseline topology, parallel
// efficiency, chip-boundary crossing share). Sweeps are deterministic end to end:
// the same plan renders bit-identical CSV/JSON/text on every run and
// with any worker count, so sweep outputs can be checked in as golden
// scaling tables. The epiphany-sweep command is a thin flag wrapper
// around this API.
type (
	// SweepPlan declares one experiment grid; the zero value sweeps
	// every registered workload over the preset topologies.
	SweepPlan = sweep.Plan
	// SweepCell is one expanded grid point (workload, topology, seed).
	SweepCell = sweep.Cell
	// SweepResult is an executed sweep: the normalized plan plus one
	// SweepCellResult per cell, with Text, Markdown, CSV and JSON
	// renderers.
	SweepResult = sweep.Result
	// SweepCellResult is one executed cell: its Metrics plus the
	// derived speedup, efficiency and crossing-share columns.
	SweepCellResult = sweep.CellResult
	// NamedSweepPlan is a registered, reusable sweep plan: the grid
	// plus the name CLIs and the serve daemon resolve it by.
	NamedSweepPlan = sweep.NamedPlan
)

// SweepPlans lists every registered named plan sorted by name. The
// built-in "scaling-1024" study - the workload suite swept from e16 to
// a 1024-core grid=4x4/chip=8x8 mesh with the 28nm power model - is
// always present.
func SweepPlans() []NamedSweepPlan { return sweep.Plans() }

// SweepPlanByName looks up one registered plan (e.g. "scaling-1024").
func SweepPlanByName(name string) (NamedSweepPlan, bool) { return sweep.PlanByName(name) }

// ResolveSweepPlan is SweepPlanByName with the canonical unknown-name
// error ("did you mean" plus the registered listing) on a miss, for
// CLI flags and service error bodies.
func ResolveSweepPlan(name string) (NamedSweepPlan, error) { return sweep.ResolvePlan(name) }

// ScalingStudyPlan returns the 1024-core scaling study grid: every
// built-in workload, the off-chip matmul included, swept over
// e16 -> cluster-2x2/e64 -> grid=2x4/chip=8x8 (512 cores) ->
// grid=4x4/chip=8x8 (1024 cores) with the epiphany-iv-28nm power
// model at its nominal point, speedup and efficiency derived against
// the e16 baseline.
func ScalingStudyPlan() SweepPlan { return sweep.ScalingStudy() }

// Sweep executes the plan's workload x topology x seed grid with the
// given number of concurrent workers (<= 0 means GOMAXPROCS) and
// returns the aggregated result. Per-cell failures are recorded in the
// result's cells; the returned error is reserved for plan errors and
// context cancellation. Each cellOpts function is called once per cell,
// in expansion order before any cell runs, and adds its option to that
// cell's run (WithEngineStats, or a per-cell WithTimeline buffer).
func Sweep(ctx context.Context, p SweepPlan, workers int, cellOpts ...func(SweepCell) Option) (*SweepResult, error) {
	return sweep.Run(ctx, p, workers, cellOpts...)
}
