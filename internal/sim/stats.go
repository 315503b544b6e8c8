package sim

import "fmt"

// EngineStats is a snapshot of the engine's scheduler counters after a
// run, collected by Engine.Stats. The counting is unconditional (each
// counter is one increment on a path that already does real work), and
// every field is deterministic for a fixed board and workload.
type EngineStats struct {
	// Events is how many events the engine dispatched.
	Events uint64 `json:"events"`
	// HeapPeak is the high-water mark of the event heap.
	HeapPeak int `json:"heap_peak"`
	// Shards, SysEvents and CrossPosts are always zero.
	//
	// Deprecated: the shard partition they measured was removed; the
	// benchmark catch-up deletes them.
	Shards int `json:"-"`
	// Deprecated: always zero, see Shards.
	SysEvents uint64 `json:"-"`
	// Deprecated: always zero, see Shards.
	CrossPosts uint64 `json:"-"`
	// BarrierRounds, BookingParks, PhaseAWallNS and PhaseBWallNS are
	// always zero.
	//
	// Deprecated: the parallel scheduler they measured was removed.
	BarrierRounds uint64 `json:"-"`
	// Deprecated: always zero, see BarrierRounds.
	BookingParks uint64 `json:"-"`
	// Deprecated: always zero, see BarrierRounds.
	PhaseAWallNS int64 `json:"-"`
	// Deprecated: always zero, see BarrierRounds.
	PhaseBWallNS int64 `json:"-"`
}

// Stats snapshots the engine's scheduler counters. Counters accumulate
// across RunUntil calls and clear on Reset; take the snapshot before
// recycling the board.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Events: e.nEvents, HeapPeak: e.heapPeak}
}

// String renders the snapshot as the epiphany-sweep -engine-stats
// report.
func (st EngineStats) String() string {
	return fmt.Sprintf("engine: %d events, heap peak %d\n", st.Events, st.HeapPeak)
}
