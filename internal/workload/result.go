package workload

import (
	"epiphany/internal/power"
	"epiphany/internal/system"
)

// decorated is a workload's Result with the metrics derived from the
// board after the run filled in: the energy domain (WithPowerModel)
// and/or the engine's scheduler counters (WithEngineStats). The
// underlying result is embedded, so its own methods stay reachable;
// callers that need the concrete result type (for gathered grids,
// product matrices, ...) unwrap it first.
type decorated struct {
	Result
	metrics Metrics
}

// Metrics reports the inner result's metrics with the derived fields
// filled in.
func (r *decorated) Metrics() Metrics { return r.metrics }

// Unwrap returns the undecorated workload result, for type assertions
// on its concrete type.
func (r *decorated) Unwrap() Result { return r.Result }

// Unwrap peels any decoration off a Result, returning the workload's own
// concrete result.
func Unwrap(res Result) Result {
	for {
		u, ok := res.(interface{ Unwrap() Result })
		if !ok {
			return res
		}
		res = u.Unwrap()
	}
}

// decorate derives the optional post-run metrics from sys and wraps res
// once with them; it returns res itself when rc asks for none. It must
// run before the System is reset or recycled (the activity and
// scheduler counters are board state).
func decorate(res Result, sys *system.System, rc *runConfig) (Result, error) {
	if rc.topo.Power == "" && !rc.engineStats {
		return res, nil
	}
	m := res.Metrics()
	if rc.topo.Power != "" {
		model, err := power.ResolveModel(rc.topo.Power)
		if err != nil {
			return nil, err
		}
		op, err := model.Point(rc.topo.DVFS)
		if err != nil {
			return nil, err
		}
		m.AttachEnergy(model.Energy(sys.EnergyCounters(m.Elapsed), op))
	}
	if rc.engineStats {
		st := sys.Engine().Stats()
		m.Engine = &st
	}
	return &decorated{Result: res, metrics: m}, nil
}
