package sim

import (
	"strings"
	"testing"
)

// TestStatsSequentialCounts: the always-on counters on the classic
// single-heap engine - events dispatched, heap peak - with nothing
// posted across shards.
func TestStatsSequentialCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(10*(i+1)), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 1 {
		t.Errorf("%d shards, want 1", st.Shards)
	}
	if st.Events != 5 || st.SysEvents != 5 {
		t.Errorf("events %d/%d, want 5/5", st.Events, st.SysEvents)
	}
	if st.SysShare != 1 {
		t.Errorf("SysShare = %v, want 1 (everything on the sys shard)", st.SysShare)
	}
	if st.PerShard[0].HeapPeak != 5 {
		t.Errorf("heap peak %d, want 5 (all scheduled up front)", st.PerShard[0].HeapPeak)
	}
	if st.CrossPosts != 0 {
		t.Errorf("single-heap run posted across shards: %+v", st)
	}
}

// TestStatsShardedCounters: cross-shard posts (plain and tagged) land
// in the sender's counters and events land in the executing shard's.
func TestStatsShardedCounters(t *testing.T) {
	e := newSharded(2)
	sys := e.Sys()
	e.Shard(1).At(5, func() { e.Shard(1).Send(sys, 10, func() {}) })
	e.Shard(2).At(5, func() { e.Shard(2).SendTagged(sys, 10, 3, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 3 {
		t.Fatalf("%d shards, want 3", st.Shards)
	}
	if st.Events != 4 { // two shard-local events + two posted arrivals on sys
		t.Errorf("events = %d, want 4", st.Events)
	}
	if st.CrossPosts != 2 || st.TaggedPosts != 1 {
		t.Errorf("cross posts %d (tagged %d), want 2 (1)", st.CrossPosts, st.TaggedPosts)
	}
	if st.PerShard[1].CrossPosts != 1 || st.PerShard[2].TaggedPosts != 1 {
		t.Errorf("posts not attributed to the sending shard: %+v", st.PerShard)
	}
	if st.SysEvents != 2 {
		t.Errorf("sys executed %d events, want the 2 posted arrivals", st.SysEvents)
	}
	if got := []string{st.PerShard[0].Label, st.PerShard[1].Label, st.PerShard[2].Label}; got[0] != "sys" || got[1] != "chip0" || got[2] != "chip1" {
		t.Errorf("shard labels %v", got)
	}
}

// TestStatsResetClears: a recycled engine starts its counters at zero.
func TestStatsResetClears(t *testing.T) {
	e := newSharded(2)
	e.Shard(1).At(5, func() { e.Shard(1).Send(e.Sys(), 10, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Events == 0 {
		t.Fatal("no events before reset; test is vacuous")
	}
	e.Reset()
	st := e.Stats()
	if st.Events != 0 || st.CrossPosts != 0 || st.TaggedPosts != 0 {
		t.Errorf("reset kept counters: %+v", st)
	}
	if st.PerShard[0].HeapPeak != 0 {
		t.Errorf("reset kept heap peak %d", st.PerShard[0].HeapPeak)
	}
}

// TestStatsStringReport: the rendered report carries the layout header,
// the cross-shard post totals and one table row per shard.
func TestStatsStringReport(t *testing.T) {
	e := newSharded(2)
	e.Shard(1).At(5, func() { e.Shard(1).SendTagged(e.Sys(), 10, 3, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().String()
	for _, want := range []string{
		"engine: 3 shard(s), 2 events",
		"cross-shard posts 1 (tagged 1)",
		"sys", "chip0", "chip1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
