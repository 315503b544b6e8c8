package sim

import (
	"fmt"
	"strings"
)

// ShardStats is one shard's scheduler counters for a run. The counting
// is unconditional (each counter is one increment on a path that
// already does real work), so a snapshot is always available, and every
// count is deterministic for a fixed board and shard partition.
type ShardStats struct {
	// Shard is the shard index; Label its diagnostic name ("sys",
	// "chip0", ...).
	Shard int    `json:"shard"`
	Label string `json:"label"`
	// Events is how many events this shard dispatched.
	Events uint64 `json:"events"`
	// HeapPeak is the high-water mark of the shard's event heap.
	HeapPeak int `json:"heap_peak"`
	// CrossPosts counts cross-shard events this shard sent (Send,
	// SendTagged, cross-shard spawns); TaggedPosts the subset carrying
	// a core arbitration tag (SendTagged - contended shared-resource
	// requests).
	CrossPosts  uint64 `json:"cross_posts"`
	TaggedPosts uint64 `json:"tagged_posts"`
}

// EngineStats is a snapshot of the engine's scheduler counters after a
// run: the per-shard counts and their totals. Collected by
// Engine.Stats; every field is deterministic for a fixed board and
// shard partition.
type EngineStats struct {
	// Shards is the engine partition the run executed on.
	Shards int `json:"shards"`
	// Events is the total executed events; SysEvents the sys shard's
	// (shard 0's) part and SysShare its fraction - the direct measure of
	// how much of the board serializes through the host/eLink/DRAM
	// shard.
	Events    uint64  `json:"events"`
	SysEvents uint64  `json:"sys_events"`
	SysShare  float64 `json:"sys_share"`
	// CrossPosts/TaggedPosts are the per-shard counters summed (see
	// ShardStats).
	CrossPosts  uint64 `json:"cross_posts"`
	TaggedPosts uint64 `json:"tagged_posts"`
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
	// PerShard is the per-shard breakdown, indexed by shard id.
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// shardLabel is the diagnostic shard name used by stats and deadlock
// reports alike.
func shardLabel(id int32) string {
	if id == 0 {
		return "sys"
	}
	return fmt.Sprintf("chip%d", id-1)
}

// Stats snapshots the engine's scheduler counters. Counters accumulate
// across RunUntil calls and clear on Reset; take the snapshot before
// recycling the board.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Shards:   len(e.shards),
		PerShard: make([]ShardStats, len(e.shards)),
	}
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:       i,
			Label:       shardLabel(s.id),
			Events:      s.nEvents,
			HeapPeak:    s.heapPeak,
			CrossPosts:  s.crossPosts,
			TaggedPosts: s.taggedPosts,
		}
		st.PerShard[i] = ss
		st.Events += ss.Events
		st.CrossPosts += ss.CrossPosts
		st.TaggedPosts += ss.TaggedPosts
	}
	st.SysEvents = e.shards[0].nEvents
	if st.Events > 0 {
		st.SysShare = float64(st.SysEvents) / float64(st.Events)
	}
	return st
}

// String renders the snapshot as the epiphany-bench -engine-stats
// report.
func (st EngineStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d shard(s), %d events (sys share %.1f%%)\n",
		st.Shards, st.Events, 100*st.SysShare)
	fmt.Fprintf(&b, "  cross-shard posts %d (tagged %d)\n", st.CrossPosts, st.TaggedPosts)
	fmt.Fprintf(&b, "  %-6s %10s %10s %12s %8s\n", "shard", "events", "heap-peak", "cross-posts", "tagged")
	for _, ss := range st.PerShard {
		fmt.Fprintf(&b, "  %-6s %10d %10d %12d %8d\n",
			ss.Label, ss.Events, ss.HeapPeak, ss.CrossPosts, ss.TaggedPosts)
	}
	return b.String()
}
