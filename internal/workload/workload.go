// Package workload defines the pluggable workload abstraction the
// public epiphany package re-exports: a Workload is any experiment that
// can validate its configuration and execute against a fresh System,
// reporting the paper-style Metrics. The package also keeps the
// process-wide registry of named workloads and the functional options
// (topology, seed, timeline) shared by the one-shot Run helper and the
// concurrent batch Runner.
package workload

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"

	"epiphany/internal/core"
	"epiphany/internal/power"
	"epiphany/internal/system"
	"epiphany/internal/trace"
)

// Metrics is the common performance summary (GFLOPS, % of peak,
// compute/transfer split) every Result reports.
type Metrics = core.Metrics

// Result is the output of one workload run. Concrete results (for
// example core.StencilResult) carry richer data - gathered grids,
// product matrices, DRAM traffic - reachable by type assertion; Metrics
// is the lingua franca every result speaks.
type Result interface {
	Metrics() Metrics
}

// Workload is one runnable experiment. Implementations outside this
// module plug in the same way the built-ins do: validate the
// configuration, Acquire the System, drive the board, and report
// Metrics.
type Workload interface {
	// Name identifies the workload; registered names must be unique.
	Name() string
	// Validate checks the configuration without running it.
	Validate() error
	// Run executes the workload on a fresh System. Implementations must
	// call sys.Acquire so that stale boards are refused, and should
	// check ctx before starting (a simulation in flight is not
	// interruptible; cancellation is observed at run boundaries).
	Run(ctx context.Context, sys *system.System) (Result, error)
}

// Reseeder is implemented by workloads whose inputs derive from a seed;
// WithSeed uses it to rebase a workload onto a new seed without
// mutating the original (registered workloads are shared).
type Reseeder interface {
	Workload
	Reseed(seed uint64) Workload
}

// TopologyFitter is implemented by workloads that can adapt their
// workgroup shape to the device they are handed, so one registered
// preset runs unchanged on every topology from a 4x4 E16 to a
// multi-chip cluster. FitTopology returns a copy resized for a rows x
// cols core mesh (or the receiver when it already fits); the built-ins
// all implement it.
type TopologyFitter interface {
	Workload
	FitTopology(rows, cols int) Workload
}

// runConfig collects the option-settable knobs for one run. The power
// model and DVFS point are per-run settings, not part of the board:
// options set their names, and prepare resolves them once into model
// and point, which decorate prices the run's counters with.
type runConfig struct {
	topo        system.Topology
	seed        *uint64
	timeline    io.Writer
	engineStats bool
	power       string
	dvfs        string
	model       *power.Model // nil when the run is not metered
	point       power.OperatingPoint
}

// Option configures how Run (and Runner) executes a workload.
type Option func(*runConfig)

// WithTopology runs the workload on the given fabric topology - a
// preset (system.E16, system.E64, system.Cluster2x2) or a custom board
// of chips. Workloads implementing TopologyFitter adapt their workgroup
// shape to the board; on multi-chip boards, traffic crossing chip
// boundaries pays the chip-to-chip eLink costs, reported in
// Metrics.ELinkCrossTime.
func WithTopology(t system.Topology) Option {
	return func(rc *runConfig) { rc.topo = t }
}

// WithWorkers does nothing: every board runs on one event heap.
//
// Deprecated: the parallel shard scheduler was removed; run whole jobs
// concurrently with Runner.Workers instead.
func WithWorkers(int) Option { return func(*runConfig) {} }

// WithSeed rebases the workload's deterministic inputs onto seed. The
// workload must implement Reseeder (the built-ins do).
func WithSeed(seed uint64) Option {
	return func(rc *runConfig) { s := seed; rc.seed = &s }
}

// WithTimeline records the run as a Chrome trace-event / Perfetto JSON
// timeline written to w after the run completes: per-core activity
// spans (compute, DMA wait, flag spin), DMA transfer legs and
// chip-to-chip eLink crossings. Open the file in ui.perfetto.dev.
// Recording is observational: the run's Metrics are bit-identical with
// or without it.
func WithTimeline(w io.Writer) Option {
	return func(rc *runConfig) { rc.timeline = w }
}

// WithEngineStats snapshots the event engine's scheduler counters
// (executed events and the event heap's peak; see sim.EngineStats)
// into the result's Metrics.Engine field. Purely additive: every other
// Metrics field is bit-identical with or without it, but note that Metrics
// values carrying stats compare unequal to bare ones (Engine is a
// pointer), so golden comparisons should run without.
func WithEngineStats() Option {
	return func(rc *runConfig) { rc.engineStats = true }
}

// WithPowerModel attaches the named power-model preset (see
// power.Models) and optional DVFS operating point ("FREQ[MHz]@VOLT[V]",
// or ""/"nominal" for the model's nominal point) to the run: after the
// simulation completes, its activity counters are priced into the
// Metrics' energy fields (EnergyJ, AvgPowerW, GFLOPSPerWatt, EDPJs and
// the per-component breakdown). The model is derivation-only - the
// time-domain metrics are bit-identical with or without it - so it is
// not part of the board: Runner reuses one pooled board for runs under
// any model and point.
func WithPowerModel(model, dvfs string) Option {
	return func(rc *runConfig) { rc.power, rc.dvfs = model, dvfs }
}

// Run validates w and executes it on a fresh System built according to
// the options. It is the one-shot form of Runner.RunBatch.
func Run(ctx context.Context, w Workload, opts ...Option) (Result, error) {
	w, rc, err := prepare(w, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys := system.NewTopology(rc.topo)
	res, err := runOn(ctx, w, sys, &rc)
	// A workload that Stops the engine with kernels still parked would
	// otherwise strand their coroutines, and the dropped board with
	// them. Resetting only the engine unwinds them once the result and
	// its derived metrics are taken, and leaves the board's memory to a
	// result that still reads it.
	_ = sys.Engine().Reset() // fails only inside a run, and the run has returned
	return res, err
}

// prepare applies the options and readies w for execution: topology
// validation, power-model and DVFS resolution, reseeding, topology
// fitting, config validation. It returns the workload to actually run
// (possibly a rebased or refitted copy) and the resolved run
// configuration.
func prepare(w Workload, opts []Option) (Workload, runConfig, error) {
	rc := runConfig{topo: system.E64}
	if w == nil {
		return nil, rc, fmt.Errorf("epiphany: Run of nil workload")
	}
	for _, o := range opts {
		o(&rc)
	}
	if err := rc.topo.Validate(); err != nil {
		return nil, rc, err
	}
	if rc.dvfs != "" && rc.power == "" {
		return nil, rc, fmt.Errorf("epiphany: DVFS point %q requires a power model", rc.dvfs)
	}
	if rc.power != "" {
		m, err := power.ResolveModel(rc.power)
		if err != nil {
			return nil, rc, err
		}
		if rc.point, err = m.Point(rc.dvfs); err != nil {
			return nil, rc, err
		}
		rc.model = m
	}
	if rc.seed != nil {
		r, ok := w.(Reseeder)
		if !ok {
			return nil, rc, fmt.Errorf("epiphany: workload %q does not support WithSeed", w.Name())
		}
		w = r.Reseed(*rc.seed)
	}
	if f, ok := w.(TopologyFitter); ok {
		w = f.FitTopology(rc.topo.Rows(), rc.topo.Cols())
	}
	if err := w.Validate(); err != nil {
		return nil, rc, err
	}
	return w, rc, nil
}

// runOn executes a prepared workload on sys (fresh from NewTopology, or
// recycled through System.Reset) and emits the optional timeline.
// Timeline write failures are surfaced as run errors, not dropped: a
// caller who asked for the timeline and silently got none would misread
// the run.
func runOn(ctx context.Context, w Workload, sys *system.System, rc *runConfig) (Result, error) {
	var tl *trace.Timeline
	if rc.timeline != nil {
		tl = trace.NewTimeline()
		tl.Attach(sys.Chip())
		// Detach before the board returns to the pool, error or not: a
		// recycled board must never record a stranger's run.
		defer tl.Detach(sys.Chip())
	}
	res, err := w.Run(ctx, sys)
	if err != nil {
		return nil, err
	}
	res = decorate(res, sys, rc)
	if tl != nil {
		if err := tl.Export(rc.timeline); err != nil {
			return nil, fmt.Errorf("epiphany: writing timeline for %q: %w", w.Name(), err)
		}
	}
	return res, nil
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Workload)
)

// Register adds w to the process-wide workload registry. It panics if w
// is nil, unnamed, named with a "/" (the spec grammar's override
// separator, see Parse), or a name is registered twice - registration
// happens from init functions, where a silent error would go unread (the
// same contract as database/sql.Register).
func Register(w Workload) {
	if w == nil {
		panic("epiphany: Register of nil workload")
	}
	name := w.Name()
	if name == "" {
		panic("epiphany: Register of unnamed workload")
	}
	if strings.Contains(name, "/") {
		panic(fmt.Sprintf("epiphany: Register of workload %q: names may not contain \"/\"", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("epiphany: Register called twice for workload %q", name))
	}
	registry[name] = w
}

// All returns every registered workload sorted by name.
func All() []Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	ws := make([]Workload, len(registry))
	for i, name := range slices.Sorted(maps.Keys(registry)) {
		ws[i] = registry[name]
	}
	return ws
}

// Names returns every registered workload's name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}

// ByName looks up one registered workload.
func ByName(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := registry[name]
	return w, ok
}
