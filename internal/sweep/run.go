package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"epiphany/internal/system"
	"epiphany/internal/tabular"
	"epiphany/internal/workload"
)

// CellResult is one executed grid cell with its derived scaling
// columns. A failed cell (validation error, run error, panic) carries
// the failure in Err with zero Metrics; it still occupies its grid
// position so tables keep their shape.
type CellResult struct {
	Workload string  `json:"workload"`
	Topology string  `json:"topology"` // the cell's canonical topology spec
	DVFS     string  `json:"dvfs,omitempty"`
	Seed     *uint64 `json:"seed,omitempty"`
	// Cores is the number of cores the workload's topology-fitted
	// workgroup occupies; the efficiency denominator.
	Cores   int              `json:"cores"`
	Err     string           `json:"error,omitempty"`
	Metrics workload.Metrics `json:"metrics"`
	// Speedup is baseline elapsed time over this cell's elapsed time,
	// where the baseline is the same workload and seed on the plan's
	// baseline topology (1 for the baseline cell itself; 0 when the
	// baseline is missing or either cell failed).
	Speedup float64 `json:"speedup"`
	// Efficiency is parallel efficiency: speedup scaled by the ratio of
	// baseline cores to this cell's cores.
	Efficiency float64 `json:"efficiency"`
	// CrossShare is the chip-to-chip eLink crossing time relative to the
	// run's elapsed time. Crossing time is summed over deliveries, so -
	// like a multi-core CPU percentage - concurrent crossings can push
	// the value above 1 (0 on single-chip boards).
	CrossShare float64 `json:"cross_share"`
	// EnergyRel and EDPRel compare this cell's energy-to-solution and
	// energy-delay product against the same workload/DVFS/seed cell on
	// the plan's baseline topology (1 for the baseline cell itself; 0
	// when no power model is attached or the baseline is missing).
	EnergyRel float64 `json:"energy_rel,omitempty"`
	EDPRel    float64 `json:"edp_rel,omitempty"`
}

// Result is an executed sweep: the normalized plan and one CellResult
// per expanded cell, in expansion order.
type Result struct {
	Plan  Plan         `json:"plan"`
	Cells []CellResult `json:"cells"`
}

// Run normalizes and expands the plan, executes every cell on a pooled
// workload.Runner with the given worker count (<= 0 means GOMAXPROCS),
// and derives the scaling columns. Per-cell failures are recorded in
// the cells, not returned; the returned error is reserved for plan
// errors and context cancellation. The result is bit-deterministic:
// the same plan produces identical cells (and therefore identical
// rendered output) on every run, with any worker count.
//
// Each cellOpts function is called once per cell, in expansion order
// and before any cell runs, and the option it returns is appended to
// that cell's job: the epiphany-sweep CLI attaches engine counters and
// a per-cell timeline buffer this way.
func Run(ctx context.Context, p Plan, workers int, cellOpts ...func(Cell) workload.Option) (*Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	cells := p.Expand()
	jobs := make([]workload.Job, len(cells))
	cores := make([]int, len(cells))
	for i, c := range cells {
		jobs[i], cores[i], err = p.CellJob(c)
		if err != nil {
			return nil, err
		}
		for _, f := range cellOpts {
			jobs[i].Options = append(jobs[i].Options, f(c))
		}
	}
	r := &workload.Runner{Workers: workers}
	br, err := r.RunBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: p, Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		res.Cells[i] = NewCellResult(c, cores[i], br.Results[i])
	}
	res.Derive()
	return res, nil
}

// CellJob translates one expanded cell of a normalized plan into the
// workload.Job the Runner executes, also reporting how many cores the
// cell's topology-fitted workgroup occupies (the efficiency
// denominator). It is the per-cell half of Run, exported so callers
// that schedule cells individually - the epiphany-serve daemon runs
// each cell through its result cache - build byte-identical jobs.
func (p Plan) CellJob(c Cell) (workload.Job, int, error) {
	w, err := workload.Parse(c.Workload)
	if err != nil {
		return workload.Job{}, 0, err
	}
	st, err := system.ParseTopologySpec(c.Topo)
	if err != nil {
		return workload.Job{}, 0, err
	}
	cores := workload.UsedCores(w, st.Rows(), st.Cols())
	opts := []workload.Option{workload.WithTopology(st)}
	if p.Power != "" {
		opts = append(opts, workload.WithPowerModel(p.Power, c.DVFS))
	}
	if c.Seed != nil {
		opts = append(opts, workload.WithSeed(*c.Seed))
	}
	return workload.Job{Workload: w, Options: opts}, cores, nil
}

// NewCellResult converts one executed job back into its cell's result
// row: raw metrics and crossing share only - the derived scaling
// columns (speedup, efficiency, relative energy) belong to a grid, not
// a cell, and are filled by Derive/DeriveCell against a baseline.
func NewCellResult(c Cell, cores int, jr workload.JobResult) CellResult {
	cr := CellResult{
		Workload: c.Workload,
		Topology: c.Topo,
		DVFS:     c.DVFS,
		Seed:     c.Seed,
		Cores:    cores,
	}
	if jr.Err != nil {
		cr.Err = jr.Err.Error()
	} else {
		cr.Metrics = jr.Result.Metrics()
		if cr.Metrics.Elapsed > 0 {
			cr.CrossShare = float64(cr.Metrics.ELinkCrossTime) / float64(cr.Metrics.Elapsed)
		}
	}
	return cr
}

// Derive fills the speedup, efficiency and relative-energy columns of
// every cell against its baseline cell (Plan.Baselines). Run calls it
// on every executed grid; it is exported for callers that assemble a
// Result from individually executed (or cached) cells.
func (r *Result) Derive() {
	cells := make([]Cell, len(r.Cells))
	for i, c := range r.Cells {
		cells[i] = Cell{Workload: c.Workload, Topo: c.Topology, DVFS: c.DVFS, Seed: c.Seed}
	}
	for i, b := range r.Plan.Baselines(cells) {
		if b >= 0 {
			DeriveCell(&r.Cells[i], &r.Cells[b])
		}
	}
}

// DeriveCell fills c's derived scaling columns against its baseline
// cell b - the same workload, DVFS point and seed on the plan's
// baseline topology (c itself for baseline cells, where all ratios are
// exactly 1). A nil or failed baseline, a failed cell, or degenerate
// core/time counts leave the columns zero, exactly as Derive does
// grid-wide; the cell-at-a-time form exists so the epiphany-serve
// daemon can stream derived rows as cells complete, with values
// byte-identical to a whole-grid Derive.
func DeriveCell(c, b *CellResult) {
	if c.Err != "" || b == nil || b.Err != "" {
		return
	}
	if c.Metrics.Elapsed == 0 || b.Cores == 0 || c.Cores == 0 {
		return
	}
	c.Speedup = float64(b.Metrics.Elapsed) / float64(c.Metrics.Elapsed)
	c.Efficiency = c.Speedup * float64(b.Cores) / float64(c.Cores)
	if b.Metrics.EnergyJ > 0 {
		c.EnergyRel = c.Metrics.EnergyJ / b.Metrics.EnergyJ
	}
	if b.Metrics.EDPJs > 0 {
		c.EDPRel = c.Metrics.EDPJs / b.Metrics.EDPJs
	}
}

// seedLabel renders a cell's seed for keys and table cells ("-" for the
// workload's registered default).
func seedLabel(s *uint64) string {
	if s == nil {
		return "-"
	}
	return strconv.FormatUint(*s, 10)
}

// energyOn reports whether the executed plan carried a power model -
// the switch that adds the energy columns. Without it every renderer
// produces byte-identical output to the pre-energy subsystem, which is
// what keeps the checked-in time-domain goldens frozen.
func (r *Result) energyOn() bool { return r.Plan.Power != "" }

// prettyHeader returns the human renderers' header row.
func (r *Result) prettyHeader() []string {
	h := []string{"workload", "topology"}
	if r.energyOn() {
		h = append(h, "dvfs")
	}
	h = append(h, "seed", "cores", "time (ms)", "GFLOPS", "% peak",
		"% compute", "% transfer", "speedup", "efficiency", "x-chip %")
	if r.energyOn() {
		h = append(h, "wall (ms)", "energy (mJ)", "avg W", "GFLOPS/W", "energy rel", "EDP rel")
	}
	return append(h, "error")
}

// prettyRows formats the cells at fixed precision for Text and
// Markdown.
func (r *Result) prettyRows() [][]string {
	energy := r.energyOn()
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		if c.Err != "" {
			row := []string{c.Workload, c.Topology}
			if energy {
				row = append(row, c.DVFS)
			}
			row = append(row, seedLabel(c.Seed), "-", "-", "-", "-", "-", "-", "-", "-", "-")
			if energy {
				row = append(row, "-", "-", "-", "-", "-", "-")
			}
			rows = append(rows, append(row, c.Err))
			continue
		}
		compute, transfer := "-", "-"
		if c.Metrics.ComputeTime+c.Metrics.TransferTime > 0 {
			compute = fmt.Sprintf("%.1f", c.Metrics.PctCompute())
			transfer = fmt.Sprintf("%.1f", c.Metrics.PctTransfer())
		}
		xchip := "-"
		if c.Metrics.ELinkCrossings > 0 {
			xchip = fmt.Sprintf("%.1f", 100*c.CrossShare)
		}
		row := []string{c.Workload, c.Topology}
		if energy {
			row = append(row, c.DVFS)
		}
		row = append(row,
			seedLabel(c.Seed),
			strconv.Itoa(c.Cores),
			fmt.Sprintf("%.3f", c.Metrics.Elapsed.Seconds()*1e3),
			fmt.Sprintf("%.2f", c.Metrics.GFLOPS),
			fmt.Sprintf("%.1f", c.Metrics.PctPeak),
			compute,
			transfer,
			fmt.Sprintf("%.2f", c.Speedup),
			fmt.Sprintf("%.2f", c.Efficiency),
			xchip,
		)
		if energy {
			row = append(row,
				fmt.Sprintf("%.3f", c.Metrics.WallTimeS*1e3),
				fmt.Sprintf("%.3f", c.Metrics.EnergyJ*1e3),
				fmt.Sprintf("%.3f", c.Metrics.AvgPowerW),
				fmt.Sprintf("%.2f", c.Metrics.GFLOPSPerWatt),
				fmt.Sprintf("%.2f", c.EnergyRel),
				fmt.Sprintf("%.2f", c.EDPRel),
			)
		}
		rows = append(rows, append(row, ""))
	}
	return rows
}

// Table returns the result as a tabular grid with the derived scaling
// columns (plus the energy columns when the plan carries a power
// model), for callers that want to render it themselves.
func (r *Result) Table() *tabular.Table {
	return &tabular.Table{Header: r.prettyHeader(), Rows: r.prettyRows()}
}

// Text renders the scaling table as aligned monospace text, with a
// title line naming the baseline.
func (r *Result) Text() string {
	return fmt.Sprintf("experiment sweep: %d cells, speedup vs %s\n", len(r.Cells), r.Plan.Baseline) +
		r.Table().Text()
}

// Markdown renders the scaling table as a GitHub-flavoured markdown
// table.
func (r *Result) Markdown() string {
	return r.Table().Markdown()
}

// CSV renders the machine-grade table: exact integer metrics
// (elapsed in sim.Time units, flops, crossing counters) and
// full-precision floats, so the output pins the simulation bit for bit
// and can be checked in as a golden file. Plans carrying a power model
// append the energy columns (wall seconds at the operating point,
// joules total and per component, watts, GFLOPS/W, EDP, and the
// baseline-relative ratios); without one the bytes are identical to the
// pre-energy renderer.
func (r *Result) CSV() string {
	energy := r.energyOn()
	header := []string{"workload", "topology"}
	if energy {
		header = append(header, "dvfs")
	}
	header = append(header, "seed", "cores",
		"elapsed_units", "total_flops", "gflops", "pct_peak",
		"speedup", "efficiency",
		"xchip_crossings", "xchip_bytes", "xchip_time_units", "xchip_share")
	if energy {
		header = append(header, "wall_s", "energy_j", "avg_power_w",
			"gflops_per_w", "edp_js", "energy_rel", "edp_rel",
			"e_core_active_j", "e_core_idle_j", "e_fpu_j", "e_sram_j",
			"e_dram_j", "e_mesh_j", "e_elink_j", "e_c2c_j", "e_leakage_j")
	}
	t := &tabular.Table{Header: append(header, "error")}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range r.Cells {
		if c.Err != "" {
			row := []string{c.Workload, c.Topology}
			if energy {
				row = append(row, c.DVFS)
			}
			row = append(row, seedLabel(c.Seed), strconv.Itoa(c.Cores))
			for len(row) < len(t.Header)-1 {
				row = append(row, "")
			}
			t.Rows = append(t.Rows, append(row, c.Err))
			continue
		}
		m := c.Metrics
		row := []string{c.Workload, c.Topology}
		if energy {
			row = append(row, c.DVFS)
		}
		row = append(row,
			seedLabel(c.Seed),
			strconv.Itoa(c.Cores),
			strconv.FormatUint(uint64(m.Elapsed), 10),
			strconv.FormatUint(m.TotalFlops, 10),
			g(m.GFLOPS),
			g(m.PctPeak),
			g(c.Speedup),
			g(c.Efficiency),
			strconv.FormatUint(m.ELinkCrossings, 10),
			strconv.FormatUint(m.ELinkCrossBytes, 10),
			strconv.FormatUint(uint64(m.ELinkCrossTime), 10),
			g(c.CrossShare),
		)
		if energy {
			row = append(row,
				g(m.WallTimeS), g(m.EnergyJ), g(m.AvgPowerW),
				g(m.GFLOPSPerWatt), g(m.EDPJs), g(c.EnergyRel), g(c.EDPRel),
				g(m.Energy.CoreActiveJ), g(m.Energy.CoreIdleJ), g(m.Energy.FPUJ),
				g(m.Energy.SRAMJ), g(m.Energy.DRAMJ), g(m.Energy.MeshJ),
				g(m.Energy.ELinkJ), g(m.Energy.C2CJ), g(m.Energy.LeakageJ),
			)
		}
		t.Rows = append(t.Rows, append(row, ""))
	}
	return t.CSV()
}

// JSON renders the full result - normalized plan and every cell with
// raw metrics and derived columns - as indented JSON. Marshalling is
// deterministic (struct field order), so JSON output is golden-stable
// too.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
