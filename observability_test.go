package epiphany_test

// The observability suite's core claim: recording is free of semantic
// effect. A run with a Timeline attached, or with engine stats
// requested, computes bit-identical Metrics to a bare run, and the
// recorded content itself (spans, scheduler counters) is
// deterministic, pinned against golden counts for well-understood
// cells.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"epiphany"
)

// obsWorkload returns the suite's cell: matmul-offchip on the 4-chip
// cluster. It pages operands through shared DRAM (DMA legs) and crosses
// chip boundaries (c2c spans) - every recorder hook fires.
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
// change a single Metrics bit, with and without the inert WithShards
// and WithWorkers shims that perfbench still calls.
func TestTimelineDoesNotPerturbMetrics(t *testing.T) {
	w, topo := obsWorkload(t)
	for _, shards := range []int{1, 0} {
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
// suite's cell: core-activity spans, DMA legs and
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

// TestEngineStatsGolden pins the scheduler counters of every built-in
// driver: the DRAM-paging workloads on one chip and on the 4-chip
// cluster, where every DMA leg to or from DRAM and every cross-chip
// leg runs inline, and the on-chip stencil, Cannon and SUMMA runs on
// e64. Every field is deterministic for a fixed board, so a drift
// here means the schedule changed and the goldens need conscious
// regeneration.
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
		{"matmul-offchip", "cluster-2x2", epiphany.EngineStats{Events: 13238, HeapPeak: 72}},
		{"matmul-offchip", "e64", epiphany.EngineStats{Events: 12941, HeapPeak: 103}},
		{"stream-stencil", "e64", epiphany.EngineStats{Events: 5047, HeapPeak: 65}},
		{"stream-stencil", "cluster-2x2", epiphany.EngineStats{Events: 4984, HeapPeak: 65}},
		{"stencil-tuned", "e64", epiphany.EngineStats{Events: 910, HeapPeak: 12}},
		{"matmul-cannon", "e64", epiphany.EngineStats{Events: 1342, HeapPeak: 68}},
		{"matmul-summa", "e64", epiphany.EngineStats{Events: 1654, HeapPeak: 30}},
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
			if *st != tc.want {
				t.Errorf("stats %+v, want %+v", *st, tc.want)
			}
			// The deprecated WithWorkers shim changes nothing.
			if st4 := run(w, topo, epiphany.WithWorkers(4)); *st4 != *st {
				t.Errorf("WithWorkers(4) counters diverge: %+v, want %+v", *st4, *st)
			}
			// Nor does the deprecated WithShards shim, which perfbench's
			// board jobs call: they count the same events as the golden.
			t.Run("shards=1", func(t *testing.T) {
				if st1 := run(w, topo.WithShards(1)); *st1 != tc.want {
					t.Errorf("WithShards(1) stats %+v, want %+v", *st1, tc.want)
				}
			})
			// And the report renders the header the bench flag prints.
			if s, want := st.String(), fmt.Sprintf("engine: %d events, heap peak %d\n", tc.want.Events, tc.want.HeapPeak); s != want {
				t.Errorf("stats report %q, want %q", s, want)
			}
		})
	}
}

// TestEngineStatsSequential: a single-chip run reports its events, and
// the deprecated partition counters stay zero.
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
	if st.Shards != 0 || st.SysEvents != 0 || st.CrossPosts != 0 {
		t.Errorf("deprecated counters set: %+v", *st)
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
