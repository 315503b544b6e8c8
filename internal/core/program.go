package core

import (
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
)

// Summary is the time-domain record every built-in result embeds: the
// figures the paper reports for a run and the chip-boundary traffic of
// multi-chip boards. Its fields mean what Metrics' fields of the same
// names mean; Metrics copies them out.
type Summary struct {
	// Elapsed is the simulated device time from launch to the last
	// core's completion.
	Elapsed sim.Time
	// TotalFlops counts the useful floating-point operations the run is
	// credited with (redundant halo recomputation is excluded).
	TotalFlops uint64
	GFLOPS     float64
	PctPeak    float64
	// ComputeTime and TransferTime decompose matmul runs as Table VI
	// does (summed over cores); both are zero for the stencils.
	ComputeTime  sim.Time
	TransferTime sim.Time
	// ELinkCrossings, ELinkCrossBytes and ELinkCrossTime report the
	// traffic routed over chip-to-chip eLinks; all zero on one chip.
	ELinkCrossings  uint64
	ELinkCrossBytes uint64
	ELinkCrossTime  sim.Time
}

// Metrics reports the run's common performance summary.
func (s *Summary) Metrics() Metrics {
	return Metrics{
		Elapsed:         s.Elapsed,
		TotalFlops:      s.TotalFlops,
		GFLOPS:          s.GFLOPS,
		PctPeak:         s.PctPeak,
		ComputeTime:     s.ComputeTime,
		TransferTime:    s.TransferTime,
		ELinkCrossings:  s.ELinkCrossings,
		ELinkCrossBytes: s.ELinkCrossBytes,
		ELinkCrossTime:  s.ELinkCrossTime,
	}
}

// peakGFLOPS is 2 flops/cycle/core at the 600 MHz modelled clock.
func peakGFLOPS(cores int) float64 {
	return 2 * float64(cores) / sim.Cycle.Nanoseconds()
}

// hostProgram is the part of the paper's §III host program that differs
// between applications; run performs the rest.
type hostProgram interface {
	// stage moves the inputs into core memory or shared DRAM once the
	// image is loaded (§III steps 3-4).
	stage(hp *host.Proc, w *sdk.Workgroup)
	// kernel is the device program core (gr, gc) of the workgroup runs.
	kernel(c *ecore.Core, w *sdk.Workgroup, gr, gc int)
	// gather collects the results once every core has finished (step 5).
	gather(hp *host.Proc, w *sdk.Workgroup)
}

// launch names an application's workgroup and image for run.
type launch struct {
	// name labels the device procs, name(gr,gc).
	name string
	// rows x cols is the workgroup, placed at the chip's origin.
	rows, cols int
	// image is the device executable's size in bytes, loaded onto every
	// core of the group; 0 loads none.
	image int
	// flops is the useful work the run is credited with.
	flops uint64
}

// run executes the host program every built-in application shares
// (§III): create the workgroup, load the image onto its cores, stage
// the inputs, start the cores, wait for them and gather the results,
// then fill s from the elapsed time and the board's eLink counters.
func (s *Summary) run(h *host.Host, l launch, p hostProgram) error {
	w, err := sdk.NewWorkgroup(h.Chip(), 0, 0, l.rows, l.cols)
	if err != nil {
		return err
	}
	h.Spawn("host", func(hp *host.Proc) {
		if l.image > 0 {
			hp.LoadImage(w.Size(), l.image)
		}
		p.stage(hp, w)
		start := hp.Now()
		hp.Join(w.Launch(l.name, func(c *ecore.Core, gr, gc int) {
			p.kernel(c, w, gr, gc)
		}))
		s.Elapsed = hp.Now() - start
		p.gather(hp, w)
	})
	if err := h.Chip().Engine().Run(); err != nil {
		return err
	}
	s.TotalFlops = l.flops
	if s.Elapsed > 0 {
		s.GFLOPS = float64(s.TotalFlops) / s.Elapsed.Nanoseconds()
		s.PctPeak = 100 * s.GFLOPS / peakGFLOPS(w.Size())
	}
	mesh := h.Chip().Fabric().Mesh
	s.ELinkCrossings = mesh.Crossings()
	s.ELinkCrossBytes = mesh.CrossBytes()
	s.ELinkCrossTime = mesh.CrossTime()
	return nil
}
