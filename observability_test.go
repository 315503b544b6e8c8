package epiphany_test

// The observability suite's core claim: recording is free of semantic
// effect. A run with a Timeline attached, or with engine stats
// requested, computes bit-identical Metrics to a bare run - on the
// classic heap and on the sharded parallel scheduler alike - and the
// recorded content itself (spans, scheduler counters) is deterministic,
// pinned against golden counts for one well-understood cell.

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
// cluster. It pages operands through shared DRAM (DMA legs), crosses
// chip boundaries (c2c spans, booking traffic), and under workers > 1
// runs the parallel scheduler (barrier rounds, booking parks) - every
// recorder hook fires.
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
// change a single Metrics bit, for the sequential engine and the
// parallel scheduler both.
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
// suite's cell under the parallel scheduler: core-activity spans, DMA
// legs, chip-to-chip crossings and at least one barrier-round span on
// the scheduler track, with every span carrying a sane extent.
func TestTimelineContentClusterOffchip(t *testing.T) {
	w, topo := obsWorkload(t)
	var buf bytes.Buffer
	_, err := epiphany.Run(context.Background(), w,
		epiphany.WithTopology(topo),
		epiphany.WithWorkers(4),
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
	for _, name := range []string{
		"compute", "dma-wait", "flag-spin", // core activity
		"dram-read", "dram-write", "mesh-x", // DMA legs incl. cross-chip
		"c2c",           // eLink crossings
		"barrier round", // parallel scheduler
	} {
		if counts[name] == 0 {
			t.Errorf("timeline has no %q spans (have %v)", name, counts)
		}
	}
	// The cluster run's golden crossing count is 832 (sweep_golden.csv);
	// the timeline must record exactly one span per crossing.
	if counts["c2c"] != 832 {
		t.Errorf("c2c spans = %d, want 832 (one per eLink crossing)", counts["c2c"])
	}
}

// TestTimelineByteDeterminism: the exported bytes are a pure function
// of the cell, so two runs - even at different worker counts - must
// produce identical documents (events are fully sorted before
// encoding). Worker count changes scheduler-internal retry events, not
// recorded hardware activity or round structure.
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
		t.Error("two workers=4 runs produced different timeline bytes")
	}
	if two := capture(2); !bytes.Equal(first, two) {
		t.Error("workers=2 timeline differs from workers=4")
	}
}

// TestEngineStatsGolden pins the scheduler counters of the suite's cell
// at shards=auto (sys + 4 chips), workers=4, against golden values.
// Everything but the phase wall times is deterministic for a fixed
// (shards, workers>1) layout; a drift here means the scheduler's round
// structure changed and the goldens need conscious regeneration.
func TestEngineStatsGolden(t *testing.T) {
	w, topo := obsWorkload(t)
	run := func(workers int) *epiphany.EngineStats {
		res, err := epiphany.Run(context.Background(), w,
			epiphany.WithTopology(topo),
			epiphany.WithWorkers(workers),
			epiphany.WithEngineStats())
		if err != nil {
			t.Fatal(err)
		}
		st := res.Metrics().Engine
		if st == nil {
			t.Fatal("WithEngineStats did not populate Metrics.Engine")
		}
		return st
	}
	st := run(4)

	if st.Shards != 5 || st.Workers != 4 {
		t.Fatalf("layout %d shards x %d workers, want 5 x 4", st.Shards, st.Workers)
	}
	pins := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Events", st.Events, 15445},
		{"SysEvents", st.SysEvents, 1580},
		{"CrossPosts", st.CrossPosts, 2272},
		{"TaggedPosts", st.TaggedPosts, 896},
		{"BookingParks", st.BookingParks, 479},
		{"HeldByBound", st.HeldByBound, 16512},
		{"HeldByFloor", st.HeldByFloor, 0},
		{"BarrierRounds", st.BarrierRounds, 3994},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s = %d, want %d", p.name, p.got, p.want)
		}
	}
	if st.SysShare <= 0 || st.SysShare >= 1 {
		t.Errorf("SysShare = %v, want in (0,1)", st.SysShare)
	}
	if len(st.PerShard) != 5 {
		t.Fatalf("PerShard has %d entries, want 5", len(st.PerShard))
	}
	if st.PerShard[0].Label != "sys" || st.PerShard[1].Label != "chip0" {
		t.Errorf("shard labels %q,%q, want sys,chip0", st.PerShard[0].Label, st.PerShard[1].Label)
	}
	// The parallel scheduler ran, so the phase wall clocks accumulated.
	if st.PhaseAWallNS <= 0 || st.PhaseBWallNS <= 0 {
		t.Errorf("phase wall times A=%d B=%d, want both positive", st.PhaseAWallNS, st.PhaseBWallNS)
	}

	// Worker count beyond 1 is pure execution layout: the same counters
	// at workers=2, wall times aside.
	st2 := run(2)
	norm := func(s epiphany.EngineStats) epiphany.EngineStats {
		s.Workers, s.PhaseAWallNS, s.PhaseBWallNS = 0, 0, 0
		return s
	}
	a, b := norm(*st), norm(*st2)
	ajs, _ := json.Marshal(a)
	bjs, _ := json.Marshal(b)
	if !bytes.Equal(ajs, bjs) {
		t.Errorf("workers=2 counters diverge from workers=4:\n %s\n %s", bjs, ajs)
	}

	// And the report renders the layout header the bench flag prints.
	if s := st.String(); !strings.Contains(s, "engine: 5 shard(s) x 4 worker(s)") {
		t.Errorf("stats report missing layout header:\n%s", s)
	}
}

// TestEngineStatsSequential: on a single-chip board at workers=1 the
// parallel machinery never arms - stats still report the run's events
// with the whole board on one shard.
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
	if st.BarrierRounds != 0 || st.BookingParks != 0 || st.PhaseAWallNS != 0 {
		t.Errorf("sequential run armed parallel counters: %+v", st)
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
