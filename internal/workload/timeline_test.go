package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"epiphany/internal/system"
)

// TestTimelineComputeMatchesEnergyCounter runs every built-in with a
// timeline on a single chip and on the 4-chip cluster, and checks that
// each core's exported compute spans are the same time the energy model
// prices as active cycles: the spans of one core never overlap, lie
// within the run, and sum to Core.ComputeTime within 1 ns after the
// round trip through the format's microseconds. The run's window is the
// engine clock at its end: Metrics.Elapsed is the kernel's own timed
// region on most built-ins, which host-side setup and staging precede.
func TestTimelineComputeMatchesEnergyCounter(t *testing.T) {
	type span struct{ start, end float64 } // ns
	for _, topo := range []system.Topology{system.E64, system.Cluster2x2} {
		for _, b := range builtins {
			t.Run(topo.Name+"/"+b.Name(), func(t *testing.T) {
				var buf bytes.Buffer
				w, rc, err := prepare(b, []Option{WithTopology(topo), WithTimeline(&buf)})
				if err != nil {
					t.Fatal(err)
				}
				sys := system.NewTopology(rc.topo)
				if _, err := runOn(context.Background(), w, sys, &rc); err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name    string
						Ph      string
						Ts, Dur float64
						Tid     int
					}
				}
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				spans := make(map[int][]span)
				for _, ev := range doc.TraceEvents {
					if ev.Ph == "X" && ev.Name == "compute" {
						spans[ev.Tid] = append(spans[ev.Tid], span{ev.Ts * 1000, (ev.Ts + ev.Dur) * 1000})
					}
				}
				end := sys.Engine().Now().Nanoseconds()
				const eps = 1e-3 // ns of float rounding in the µs round trip
				for i := 0; i < sys.Chip().NumCores(); i++ {
					ss := spans[i]
					sort.Slice(ss, func(a, b int) bool { return ss[a].start < ss[b].start })
					var sum float64
					for j, s := range ss {
						if s.start < -eps || s.end > end+eps {
							t.Fatalf("core %d span [%g, %g] ns outside the run [0, %g]", i, s.start, s.end, end)
						}
						if j > 0 && s.start < ss[j-1].end-eps {
							t.Fatalf("core %d spans overlap: [%g, %g] and [%g, %g] ns",
								i, ss[j-1].start, ss[j-1].end, s.start, s.end)
						}
						sum += s.end - s.start
					}
					if want := sys.Chip().Core(i).ComputeTime().Nanoseconds(); math.Abs(sum-want) > 1 {
						t.Errorf("core %d compute spans sum to %g ns, ComputeTime is %g ns", i, sum, want)
					}
				}
				if len(spans) == 0 {
					t.Error("no compute spans recorded")
				}
			})
		}
	}
}
