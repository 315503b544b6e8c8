// Package epiphany is a deterministic simulator of the Adapteva
// Epiphany-IV 64-core network-on-chip coprocessor and a reproduction of
// the programming study "Programming the Adapteva Epiphany 64-core
// Network-on-chip Coprocessor" (Varghese, Edwards, Mitra, Rendell; IPDPS
// Workshops 2014, arXiv:1410.8772).
//
// The package offers three levels of use:
//
//   - Workload level: experiments implement the Workload interface
//     (Name, Validate, Run) and report the common Metrics (GFLOPS, % of
//     peak, compute/transfer split). The paper's three applications -
//     the hand-scheduled 5-point heat stencil, the three-level Cannon
//     matrix multiplication, and the temporally blocked streaming
//     stencil - ship as StencilWorkload, MatmulWorkload and
//     StreamStencilWorkload, with ready-made presets in the registry
//     (Register, Workloads, WorkloadByName). Run executes one workload;
//     Runner.RunBatch executes many concurrently, each on a pristine
//     System: a fresh one, or a pooled board recycled through
//     System.Reset, which is bit-identical to a fresh one - also after
//     a deadlocked, panicked or stopped run, whose parked procs are
//     unwound.
//
//   - Kernel level: Chip, Workgroup and Core expose an Epiphany-SDK-like
//     programming surface (direct remote stores, DMA descriptors with
//     chaining and 2D strides, event timers, barriers, hardware mutex)
//     for writing new device kernels against the simulated chip.
//
//   - Experiment level: the Experiments list regenerates every table and
//     figure from the paper's evaluation, and Sweep runs declarative
//     workload x topology x seed grids into deterministic scaling
//     tables (speedup, parallel efficiency, chip-boundary crossing
//     share) against a named baseline.
//
// Every run can additionally be metered by the event-sourced energy
// subsystem (WithPowerModel, SweepPlan.Power/DVFS): activity counters
// accumulated during the simulation are priced into joules, watts and
// GFLOPS/Watt by a calibrated per-component power model, with DVFS
// operating points as an analytic frequency/voltage axis - reproducing
// the paper's §VIII efficiency claims (~32 GFLOPS/W measured-style,
// 38.4 at peak) from first principles instead of the assumed 2 W.
//
// Every simulation is bit-deterministic: the same program and seed
// produce identical virtual timings and memory contents on every run,
// sequentially or across a concurrent batch.
package epiphany

import (
	"epiphany/internal/bench"
	"epiphany/internal/core"
	"epiphany/internal/ecore"
	"epiphany/internal/host"
	"epiphany/internal/sdk"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// Re-exported configuration and result types for the built-in workloads.
type (
	// StencilConfig configures a heat-stencil run (paper §VI).
	StencilConfig = core.StencilConfig
	// StencilResult reports a stencil run.
	StencilResult = core.StencilResult
	// MatmulConfig configures a matrix multiplication (paper §VII).
	MatmulConfig = core.MatmulConfig
	// MatmulResult reports a matmul run.
	MatmulResult = core.MatmulResult
	// StreamStencilConfig configures the temporally blocked streaming
	// stencil (the paper's §IX future work, implemented here).
	StreamStencilConfig = core.StreamStencilConfig
	// StreamStencilResult reports a streamed stencil run.
	StreamStencilResult = core.StreamStencilResult
	// Chip is the simulated device.
	Chip = ecore.Chip
	// Core is the per-eCore kernel interface.
	Core = ecore.Core
	// Host is the ARM-side controller model.
	Host = host.Host
	// HostProc is the host program's execution context.
	HostProc = host.Proc
	// Workgroup is a rectangle of cores (SDK e_group_config).
	Workgroup = sdk.Workgroup
	// Time is virtual time in units of 1/3 ns (5 units per core cycle).
	Time = sim.Time
)

// DefaultCoefs are the standard heat-diffusion stencil weights.
var DefaultCoefs = core.DefaultCoefs

// System is one simulated board: engine, chip and host. A System runs a
// single experiment; build a fresh one per run - or let Runner.RunBatch
// hand every workload its own. Custom Workload implementations call
// System.Acquire before driving the board so stale systems are refused.
type System = system.System

// NewSystem builds the standard 8x8 Epiphany-IV system.
func NewSystem() *System { return system.New() }

// NewSystemTopology builds a system on the given fabric topology: a
// single chip (TopologyE16, TopologyE64) or a multi-chip board
// (TopologyCluster2x2, or any custom Topology). Invalid geometries
// panic; Topology.Validate reports them as an error instead.
func NewSystemTopology(t Topology) *System { return system.NewTopology(t) }

// StreamStencilReference computes the expected streamed-stencil output
// (plain global Jacobi iteration, which the kernel reproduces exactly).
func StreamStencilReference(cfg StreamStencilConfig) [][]float32 {
	return core.StreamStencilReference(cfg)
}

// StencilReference computes the host-side reference result for cfg.
func StencilReference(cfg StencilConfig) [][]float32 { return core.StencilReference(cfg) }

// MatmulReference computes the host-side reference product for cfg.
func MatmulReference(cfg MatmulConfig) []float32 { return core.MatmulReference(cfg) }

// MaxAbsDiff returns the largest elementwise difference between two
// result vectors.
func MaxAbsDiff(x, y []float32) float64 { return core.MaxAbsDiff(x, y) }

// Experiment is one regenerable table or figure from the paper.
type Experiment = bench.Experiment

// Experiments lists every table and figure of the paper's evaluation.
var Experiments = bench.Experiments

// ExperimentByName looks up one experiment (e.g. "fig6", "table5").
func ExperimentByName(name string) (Experiment, bool) { return bench.ByName(name) }
