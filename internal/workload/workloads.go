package workload

import (
	"cmp"
	"context"

	"epiphany/internal/core"
	"epiphany/internal/system"
)

// The paper's three applications as pluggable workloads. Each wraps the
// corresponding core config; the zero Label falls back to the kind name
// so ad-hoc instances need no naming, while presets and sweeps label
// every variant for the registry and batch reports.

// Stencil runs the §VI heat stencil (hand-scheduled 5-point kernel with
// DMA boundary exchange) as a Workload.
type Stencil struct {
	// Label overrides the workload name (default "stencil").
	Label  string
	Config core.StencilConfig
}

// Name implements Workload.
func (s *Stencil) Name() string { return cmp.Or(s.Label, "stencil") }

// Validate implements Workload.
func (s *Stencil) Validate() error { return s.Config.Validate() }

// Reseed implements Reseeder.
func (s *Stencil) Reseed(seed uint64) Workload {
	c := *s
	c.Config.Seed = seed
	return &c
}

// FitTopology implements TopologyFitter by clamping the workgroup to
// the board's core mesh (the per-core grid is unchanged, so a smaller
// board simply solves a smaller global problem).
func (s *Stencil) FitTopology(rows, cols int) Workload {
	gr, gc := min(s.Config.GroupRows, rows), min(s.Config.GroupCols, cols)
	if gr == s.Config.GroupRows && gc == s.Config.GroupCols {
		return s
	}
	c := *s
	c.Config.GroupRows, c.Config.GroupCols = gr, gc
	return &c
}

// Run implements Workload.
func (s *Stencil) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := acquire(ctx, sys); err != nil {
		return nil, err
	}
	return asResult(core.RunStencil(sys.Host(), s.Config))
}

// Matmul runs the §VII Cannon (or §VIII SUMMA) matrix multiplication as
// a Workload, including the off-chip paged level.
type Matmul struct {
	// Label overrides the workload name (default "matmul").
	Label  string
	Config core.MatmulConfig
}

// Name implements Workload.
func (m *Matmul) Name() string { return cmp.Or(m.Label, "matmul") }

// Validate implements Workload.
func (m *Matmul) Validate() error { return m.Config.Validate() }

// Reseed implements Reseeder.
func (m *Matmul) Reseed(seed uint64) Workload {
	c := *m
	c.Config.Seed = seed
	return &c
}

// FitTopology implements TopologyFitter: the square Cannon/SUMMA torus
// is shrunk to the largest valid workgroup edge that fits the board
// (the problem size is unchanged; per-core blocks grow instead). When
// no edge validates, the largest one that fits is returned for
// Validate to refuse, so the torus is never wider than the board.
func (m *Matmul) FitTopology(rows, cols int) Workload {
	edge := min(rows, cols)
	if m.Config.G <= edge {
		return m
	}
	var largest *Matmul
	for _, g := range []int{8, 4, 2, 1} {
		if g > edge {
			continue
		}
		c := *m
		c.Config.G = g
		if c.Config.Validate() == nil {
			return &c
		}
		if largest == nil {
			largest = &c
		}
	}
	return largest
}

// Run implements Workload.
func (m *Matmul) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := acquire(ctx, sys); err != nil {
		return nil, err
	}
	return asResult(core.RunMatmul(sys.Host(), m.Config))
}

// StreamStencil runs the §IX temporally blocked streaming stencil as a
// Workload: the grid lives in shared DRAM and pages through the chip.
type StreamStencil struct {
	// Label overrides the workload name (default "stream-stencil").
	Label  string
	Config core.StreamStencilConfig
}

// Name implements Workload.
func (s *StreamStencil) Name() string { return cmp.Or(s.Label, "stream-stencil") }

// Validate implements Workload.
func (s *StreamStencil) Validate() error { return s.Config.Validate() }

// Reseed implements Reseeder.
func (s *StreamStencil) Reseed(seed uint64) Workload {
	c := *s
	c.Config.Seed = seed
	return &c
}

// FitTopology implements TopologyFitter by clamping the paging
// workgroup to the board while keeping the global grid tileable: each
// group dimension shrinks to the largest size that both fits and
// divides the corresponding super-block count. A non-positive block
// collapses the group to 1 and is left for Validate to report.
func (s *StreamStencil) FitTopology(rows, cols int) Workload {
	fit := func(group, limit, global, block int) int {
		g := min(group, limit)
		for g > 1 && (block < 1 || global%(g*block) != 0) {
			g--
		}
		return g
	}
	gr := fit(s.Config.GroupRows, rows, s.Config.GlobalRows, s.Config.BlockRows)
	gc := fit(s.Config.GroupCols, cols, s.Config.GlobalCols, s.Config.BlockCols)
	if gr == s.Config.GroupRows && gc == s.Config.GroupCols {
		return s
	}
	c := *s
	c.Config.GroupRows, c.Config.GroupCols = gr, gc
	return &c
}

// UsedCores reports how many cores w's workgroup occupies on a rows x
// cols core mesh, after topology fitting. It is the denominator the
// scaling tables use for parallel efficiency: a preset that clamps
// itself to a smaller board is charged for the cores it actually runs
// on, not the whole device. Workloads outside the built-in types are
// assumed to use the full mesh.
func UsedCores(w Workload, rows, cols int) int {
	if f, ok := w.(TopologyFitter); ok {
		w = f.FitTopology(rows, cols)
	}
	switch c := w.(type) {
	case *Stencil:
		return c.Config.GroupRows * c.Config.GroupCols
	case *Matmul:
		return c.Config.G * c.Config.G
	case *StreamStencil:
		return c.Config.GroupRows * c.Config.GroupCols
	}
	return rows * cols
}

// Run implements Workload.
func (s *StreamStencil) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := acquire(ctx, sys); err != nil {
		return nil, err
	}
	return asResult(core.RunStreamStencil(sys.Host(), s.Config))
}

// acquire is the built-in Runs' preamble: honour cancellation, then
// claim the board.
func acquire(ctx context.Context, sys *system.System) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return sys.Acquire()
}

// asResult returns a core run's typed result as a Result, keeping a nil
// pointer out of the interface on error.
func asResult[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
