package epiphany

import (
	"context"
	"io"

	"epiphany/internal/sim"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// The pluggable workload API. A Workload is any experiment that can
// validate its configuration and execute against a fresh System; the
// built-in implementations cover the paper's three applications, and
// external packages plug in the same way (see examples/mandelbrot and
// examples/pingpong for custom kernel-level workloads).
type (
	// Workload is one runnable experiment: Name, Validate, and Run
	// against a fresh single-use System.
	Workload = workload.Workload
	// Result is a workload's output; every result reports Metrics, and
	// concrete types (StencilResult, MatmulResult, ...) carry richer
	// data reachable by type assertion.
	Result = workload.Result
	// Metrics is the common performance summary: GFLOPS, % of peak, the
	// compute/transfer split for runs that page through shared DRAM,
	// and - when a power model is attached - the energy domain (joules,
	// watts, GFLOPS/W, EDP, per-component breakdown).
	Metrics = workload.Metrics
	// Option configures a run: WithTopology, WithSeed, WithTimeline,
	// WithEngineStats and WithPowerModel.
	Option = workload.Option
	// Reseeder is implemented by workloads whose inputs derive from a
	// seed; WithSeed requires it.
	Reseeder = workload.Reseeder
	// TopologyFitter is implemented by workloads that can adapt their
	// workgroup shape to the device they run on; the built-ins do, which
	// is what lets every registered preset run on every topology.
	TopologyFitter = workload.TopologyFitter
	// Topology describes the simulated fabric: a single chip or a board
	// of chips glued through chip-to-chip eLinks.
	Topology = system.Topology
	// EngineStats is the event engine's scheduler-counter snapshot,
	// reported in Metrics.Engine when a run asks for it with
	// WithEngineStats: executed events and the event heap's peak.
	EngineStats = sim.EngineStats

	// StencilWorkload runs the §VI heat stencil as a Workload.
	StencilWorkload = workload.Stencil
	// MatmulWorkload runs the §VII/§VIII matrix multiplication as a
	// Workload.
	MatmulWorkload = workload.Matmul
	// StreamStencilWorkload runs the §IX streaming stencil as a
	// Workload.
	StreamStencilWorkload = workload.StreamStencil
)

// Register adds w to the process-wide workload registry. It panics if w
// is nil, unnamed, or its name is already taken (registration happens
// from init functions, where a silent error would go unread).
func Register(w Workload) { workload.Register(w) }

// Workloads returns every registered workload sorted by name. The
// built-in presets - one per scenario of the paper's evaluation - are
// always present.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one registered workload (e.g.
// "stencil-tuned", "matmul-offchip").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// ParseWorkload resolves a workload spec: a registered name
// ("matmul-offchip"), optionally followed by "/key=value" overrides of
// that preset's config ("matmul-offchip/m=512/n=512/k=512"). The keys
// depend on the preset's type (epiphany-sweep -list prints them); seeds
// are set with WithSeed, and custom workload types take no keys. The
// sweep axis (and so epiphany-sweep -workloads) and the serve daemon
// resolve workloads through it. The result's Name is the canonical
// spelling, so a spec restating its preset returns the registered preset
// itself.
func ParseWorkload(spec string) (Workload, error) { return workload.Parse(spec) }

// Run validates w and executes it on a fresh System built according to
// the options. It is the one-shot form of Runner.RunBatch.
func Run(ctx context.Context, w Workload, opts ...Option) (Result, error) {
	return workload.Run(ctx, w, opts...)
}

// Preset topologies: the 16-core Epiphany-III, the paper's 64-core
// Epiphany-IV (the default), and a 2x2 cluster of Parallella boards
// whose four E16 chips form one 8x8 mesh with chip-to-chip eLink
// boundaries.
var (
	TopologyE16        = system.E16
	TopologyE64        = system.E64
	TopologyCluster2x2 = system.Cluster2x2
)

// Topologies lists the preset topologies in scaling order.
func Topologies() []Topology { return system.Topologies() }

// TopologyByName looks up a preset topology ("e16", "e64",
// "cluster-2x2").
func TopologyByName(name string) (Topology, bool) { return system.TopologyByName(name) }

// ParseTopology parses the topology grammar into a validated Topology:
// preset names ("e64"), ad-hoc single-chip meshes ("4x8"),
// parameterized chip grids ("grid=4x4/chip=8x8", where /chip= defaults
// to 8x8), cluster boards of E16 chips ("cluster-4x4"), square chip
// arrays ("e16x4", "e64x16"), all with an optional "/c2c=BYTE:HOP"
// chip-to-chip timing-override suffix. The "/shards=N" suffix of
// earlier releases is refused with an error naming its removal. Every
// consumer of a topology spelling - WithTopology callers, the sweep topo axis, the serve
// daemon's job and plan specs, and the CLIs - resolves through this
// one grammar; near-miss spellings get a "did you mean"
// suggestion, and geometry is validated against the 64x64 mesh
// address-space ceiling. Topology.Spec renders the canonical spelling
// back (ParseTopology is its inverse).
func ParseTopology(spec string) (Topology, error) { return system.ParseTopologySpec(spec) }

// WithTopology runs the workload on the given fabric topology. On
// multi-chip boards, mesh traffic crossing a chip boundary pays the
// chip-to-chip eLink's bandwidth and arbitration costs, reported in
// Metrics.ELinkCrossTime/ELinkCrossings.
func WithTopology(t Topology) Option { return workload.WithTopology(t) }

// WithSeed rebases the workload's deterministic inputs onto seed; the
// workload must implement Reseeder (the built-ins do).
func WithSeed(seed uint64) Option { return workload.WithSeed(seed) }

// WithTimeline records the run as a Chrome trace-event / Perfetto JSON
// timeline written to w after the run: per-core activity spans
// (compute, DMA wait, flag spin), DMA transfer legs and chip-to-chip
// eLink crossings. Open the output in ui.perfetto.dev. Recording is
// observational - Metrics are bit-identical with or without it.
func WithTimeline(w io.Writer) Option { return workload.WithTimeline(w) }

// WithEngineStats snapshots the event engine's scheduler counters into
// the result's Metrics.Engine (see EngineStats). Every other Metrics
// field is bit-identical with or without it.
func WithEngineStats() Option { return workload.WithEngineStats() }

// WithWorkers does nothing: every board runs on one event heap.
//
// Deprecated: the parallel shard scheduler was removed; run whole jobs
// concurrently with Runner.Workers instead.
func WithWorkers(n int) Option { return workload.WithWorkers(n) }
