package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// opSequence renders the first n ops of each client of a workload as
// the simulator would receive them, without running anything.
func opSequence(t *testing.T, workload string, seed uint64, n int) []string {
	t.Helper()
	sc, ok := scenarioByName(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	var ops []string
	for c := range sc.clients() {
		switch workload {
		case "serve-mixed":
			hot, miss, err := serveJobs(seed)
			if err != nil {
				t.Fatal(err)
			}
			s := newServeStream(seed, c, len(hot), len(miss))
			for range n {
				req := s.next()
				if req.hot >= 0 {
					ops = append(ops, "hit "+hot[req.hot].String())
					continue
				}
				m := miss[req.miss]
				ops = append(ops, fmt.Sprintf("miss %s@%s/seed=%d", m.name, m.spec, req.seed))
			}
		default:
			gen := paperJobs
			if workload == "board-1024" {
				gen = boardJobs
			}
			jobs, err := gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			s := newStream(seed, c, indices(len(jobs)))
			for range n {
				ops = append(ops, jobs[s.next()].String())
			}
		}
	}
	return ops
}

func TestSeedDeterminesOpSequence(t *testing.T) {
	for _, name := range scenarioNames() {
		t.Run(name, func(t *testing.T) {
			a := opSequence(t, name, 7, 50)
			if b := opSequence(t, name, 7, 50); !slices.Equal(a, b) {
				t.Fatal("the same seed gave two different op sequences")
			}
			if c := opSequence(t, name, 8, 50); slices.Equal(a, c) {
				t.Fatal("seeds 7 and 8 gave the same op sequence")
			}
		})
	}
}

// TestPlantedMismatchCountsAsFailure plants a wrong reference in a
// workload's set-up state and checks that the timed loop counts the ops
// that meet it as failed.
func TestPlantedMismatchCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		workload string
		plant    func(d bench)
		want     string
	}{
		{"paper-e64", func(d bench) {
			for _, j := range d.(*runnerBench).list {
				j.ref = "planted"
			}
		}, "metrics digest"},
		{"serve-mixed", func(d bench) {
			for i := range d.(*serveBench).hot {
				d.(*serveBench).hot[i].body = []byte("planted")
			}
		}, "hit body differs"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			sc, _ := scenarioByName(tc.workload)
			d, _, err := setUp(ctx, sc, 3, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			// All clients, traced, so -race sees the shared tracer and
			// bench used from several goroutines at once.
			clean := runWindow(ctx, d, sc.clients(), 200*time.Millisecond, newTracer())
			if clean.failed != 0 || clean.attempted == 0 {
				t.Fatalf("before planting: %d of %d ops failed: %v", clean.failed, clean.attempted, clean.firstErr)
			}
			tc.plant(d)
			win := runWindow(ctx, d, sc.clients(), 500*time.Millisecond, nil)
			if win.failed == 0 || !strings.Contains(fmt.Sprint(win.firstErr), tc.want) {
				t.Fatalf("after planting: %d of %d ops failed, first error %v; want failures reporting %q",
					win.failed, win.attempted, win.firstErr, tc.want)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		code []struct{ name, unit string }
		json []decl
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		var code, decls []string
		for _, m := range tc.code {
			code = append(code, m.name+" "+m.unit)
		}
		for _, m := range tc.json {
			decls = append(decls, m.Name+" "+m.Unit)
		}
		if !slices.Equal(code, decls) {
			t.Errorf("%s: program reports %v, BENCHMARK.json declares %v", tc.name, code, decls)
		}
	}
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"epiphany/internal/sim.(*Shard).dispatch":            "sim",
		"epiphany/internal/core.(*cannon).blockCompute":      "core",
		"runtime.gcBgMarkWorker":                             "runtime_gc",
		"runtime.mallocgc":                                   "runtime_gc",
		"runtime.chanrecv":                                   "runtime_sched",
		"runtime.park_m":                                     "runtime_sched",
		"runtime.memclrNoHeapPointers":                       "runtime_gc",
		"runtime.memmove":                                    "other",
		"net/http.(*conn).serve":                             "net_http",
		"container/heap.down":                                "other",
		"slices.SortFunc[go.shape.*epiphany/internal/sim.x]": "other",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
}
