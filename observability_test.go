package epiphany_test

// The observability suite's core claim: recording is free of semantic
// effect. A run with a Timeline attached, or with engine stats
// requested, computes bit-identical Metrics to a bare run - on the
// classic heap and on one shard per chip alike - and the recorded
// content itself (spans, scheduler counters) is deterministic, pinned
// against golden counts for one well-understood cell.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"epiphany"
)

// obsWorkload returns the suite's cell: matmul-offchip on the 4-chip
// cluster. It pages operands through shared DRAM (DMA legs) and crosses
// chip boundaries (c2c spans, cross-shard posts) - every recorder hook
// fires.
func obsWorkload(t *testing.T) (epiphany.Workload, epiphany.Topology) {
	t.Helper()
	w, ok := epiphany.WorkloadByName("matmul-offchip")
	if !ok {
		t.Fatal("matmul-offchip not registered")
	}
	topo, err := epiphany.ParseTopology("cluster-2x2")
	if err != nil {
		t.Fatal(err)
	}
	return w, topo
}

// TestTimelineDoesNotPerturbMetrics: attaching a Timeline must not
// change a single Metrics bit, on the classic heap and on one shard per
// chip, with and without the inert WithWorkers shim.
func TestTimelineDoesNotPerturbMetrics(t *testing.T) {
	w, topo := obsWorkload(t)
	for _, shards := range []int{1, 0} { // classic heap, one shard per chip
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				base := []epiphany.Option{
					epiphany.WithTopology(topo.WithShards(shards)),
					epiphany.WithWorkers(workers),
				}
				bare, err := epiphany.Run(context.Background(), w, base...)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				traced, err := epiphany.Run(context.Background(), w,
					append(base, epiphany.WithTimeline(&buf))...)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := traced.Metrics(), bare.Metrics(); got != want {
					t.Errorf("timeline perturbed Metrics:\n got  %+v\n want %+v", got, want)
				}
				if buf.Len() == 0 {
					t.Fatal("timeline writer got no bytes")
				}
				if !json.Valid(buf.Bytes()) {
					t.Errorf("timeline is not valid JSON")
				}
			})
		}
	}
}

// timelineDoc mirrors the trace-event envelope for assertions.
type timelineDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTimelineContentClusterOffchip checks the recorded content of the
// suite's cell on one shard per chip: core-activity spans, DMA legs and
// chip-to-chip crossings, with every span carrying a sane extent.
func TestTimelineContentClusterOffchip(t *testing.T) {
	w, topo := obsWorkload(t)
	var buf bytes.Buffer
	_, err := epiphany.Run(context.Background(), w,
		epiphany.WithTopology(topo),
		epiphany.WithTimeline(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var doc timelineDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		counts[ev.Name]++
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("span %q has negative extent ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
	}
	kinds := []string{
		"compute", "dma-wait", "flag-spin", // core activity
		"dram-read", "dram-write", "mesh", "mesh-x", // DMA legs incl. cross-chip
		"c2c", // eLink crossings
	}
	for _, name := range kinds {
		if counts[name] == 0 {
			t.Errorf("timeline has no %q spans (have %v)", name, counts)
		}
	}
	// The cluster run's golden crossing count is 832 (sweep_golden.csv);
	// the timeline must record exactly one span per crossing.
	if counts["c2c"] != 832 {
		t.Errorf("c2c spans = %d, want 832 (one per eLink crossing)", counts["c2c"])
	}
	if len(counts) != len(kinds) {
		t.Errorf("timeline has span kinds %v, want exactly %v", counts, kinds)
	}
}

// TestTimelineByteDeterminism: the exported bytes are a pure function
// of the cell, so two runs must produce identical documents (events are
// fully sorted before encoding), and the inert WithWorkers shim must
// leave no trace in them.
func TestTimelineByteDeterminism(t *testing.T) {
	w, topo := obsWorkload(t)
	capture := func(workers int) []byte {
		var buf bytes.Buffer
		_, err := epiphany.Run(context.Background(), w,
			epiphany.WithTopology(topo),
			epiphany.WithWorkers(workers),
			epiphany.WithTimeline(&buf))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := capture(4)
	if again := capture(4); !bytes.Equal(first, again) {
		t.Error("two runs produced different timeline bytes")
	}
	if one := capture(1); !bytes.Equal(first, one) {
		t.Error("WithWorkers(1) timeline differs from WithWorkers(4)")
	}
}

// TestTimelineShardInvariance: the shard partition leaves no trace in
// the timeline either. Every partition routes a DMA leg the same way, so
// the classic heap labels its cross-chip legs "mesh-x" exactly as one
// shard per chip does.
func TestTimelineShardInvariance(t *testing.T) {
	w, topo := obsWorkload(t)
	capture := func(shards int) []byte {
		var buf bytes.Buffer
		_, err := epiphany.Run(context.Background(), w,
			epiphany.WithTopology(topo.WithShards(shards)),
			epiphany.WithTimeline(&buf))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	heap := capture(1)
	if !bytes.Contains(heap, []byte(`"mesh-x"`)) {
		t.Error("shards=1 timeline records no cross-chip DMA legs")
	}
	for _, shards := range []int{2, 0} {
		if !bytes.Equal(capture(shards), heap) {
			t.Errorf("shards=%d timeline differs from shards=1", shards)
		}
	}
}

// TestEngineStatsGolden pins the scheduler counters of a few cells
// against golden values. The first is the suite's cell at shards=auto
// (sys + 4 chips): every field is deterministic for a fixed board and
// partition, so a drift there means the sharded schedule changed and
// the goldens need conscious regeneration. The others run the
// DRAM-paging workloads on the classic single heap, one chip and four,
// where every DMA leg to or from DRAM and every cross-chip leg takes the
// sys route inline: their event counts pin that the route adds no event
// and posts nothing across shards.
func TestEngineStatsGolden(t *testing.T) {
	run := func(w epiphany.Workload, topo epiphany.Topology, opts ...epiphany.Option) *epiphany.EngineStats {
		res, err := epiphany.Run(context.Background(), w,
			append([]epiphany.Option{epiphany.WithTopology(topo), epiphany.WithEngineStats()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Metrics().Engine
		if st == nil {
			t.Fatal("WithEngineStats did not populate Metrics.Engine")
		}
		return st
	}
	for _, tc := range []struct {
		workload, topo string
		want           epiphany.EngineStats
	}{
		{"matmul-offchip", "cluster-2x2", epiphany.EngineStats{
			Shards: 5, Events: 14966, SysEvents: 1580, CrossPosts: 2272, TaggedPosts: 896}},
		{"matmul-offchip", "e64", epiphany.EngineStats{Shards: 1, Events: 12941, SysEvents: 12941}},
		{"stream-stencil", "e64", epiphany.EngineStats{Shards: 1, Events: 5047, SysEvents: 5047}},
		{"matmul-offchip", "cluster-2x2/shards=1", epiphany.EngineStats{Shards: 1, Events: 13238, SysEvents: 13238}},
		{"stream-stencil", "cluster-2x2/shards=1", epiphany.EngineStats{Shards: 1, Events: 4984, SysEvents: 4984}},
	} {
		t.Run(tc.workload+"@"+tc.topo, func(t *testing.T) {
			w, ok := epiphany.WorkloadByName(tc.workload)
			if !ok {
				t.Fatalf("%s not registered", tc.workload)
			}
			topo, err := epiphany.ParseTopology(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			st := run(w, topo)
			if st.Shards != tc.want.Shards {
				t.Fatalf("%d shards, want %d", st.Shards, tc.want.Shards)
			}
			pins := []struct {
				name      string
				got, want uint64
			}{
				{"Events", st.Events, tc.want.Events},
				{"SysEvents", st.SysEvents, tc.want.SysEvents},
				{"CrossPosts", st.CrossPosts, tc.want.CrossPosts},
				{"TaggedPosts", st.TaggedPosts, tc.want.TaggedPosts},
			}
			for _, p := range pins {
				if p.got != p.want {
					t.Errorf("%s = %d, want %d", p.name, p.got, p.want)
				}
			}
			if st.Shards == 1 {
				return
			}
			if st.SysShare <= 0 || st.SysShare >= 1 {
				t.Errorf("SysShare = %v, want in (0,1)", st.SysShare)
			}
			if len(st.PerShard) != st.Shards {
				t.Fatalf("PerShard has %d entries, want %d", len(st.PerShard), st.Shards)
			}
			if st.PerShard[0].Label != "sys" || st.PerShard[1].Label != "chip0" {
				t.Errorf("shard labels %q,%q, want sys,chip0", st.PerShard[0].Label, st.PerShard[1].Label)
			}

			// The deprecated WithWorkers shim changes nothing, down to
			// the per-shard heap peaks.
			st4 := run(w, topo, epiphany.WithWorkers(4))
			ajs, _ := json.Marshal(st)
			bjs, _ := json.Marshal(st4)
			if !bytes.Equal(ajs, bjs) {
				t.Errorf("WithWorkers(4) counters diverge:\n %s\n %s", bjs, ajs)
			}

			// And the report renders the layout header the bench flag prints.
			if s := st.String(); !strings.Contains(s, fmt.Sprintf("engine: 5 shard(s), %d events", st.Events)) {
				t.Errorf("stats report missing layout header:\n%s", s)
			}
		})
	}
}

// TestEngineStatsSequential: on a single-chip board the whole run sits
// on one shard - stats still report the run's events, and nothing is
// posted across shards.
func TestEngineStatsSequential(t *testing.T) {
	w, ok := epiphany.WorkloadByName("stencil-tuned")
	if !ok {
		t.Fatal("stencil-tuned not registered")
	}
	res, err := epiphany.Run(context.Background(), w, epiphany.WithEngineStats())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Metrics().Engine
	if st == nil {
		t.Fatal("WithEngineStats did not populate Metrics.Engine")
	}
	if st.Events == 0 {
		t.Error("sequential run reported zero events")
	}
	if st.Shards != 1 || st.CrossPosts != 0 {
		t.Errorf("single-chip run used %d shards and posted %d events across them", st.Shards, st.CrossPosts)
	}
	// Metrics equality with a bare run still holds field-for-field once
	// the Engine pointer is cleared (it is the one intentional addition).
	bare, err := epiphany.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	m.Engine = nil
	if m != bare.Metrics() {
		t.Errorf("engine stats perturbed Metrics:\n got  %+v\n want %+v", m, bare.Metrics())
	}
}
