package epiphany_test

// The golden-table regenerator. `EPIPHANY_REGEN=1 go test -run
// TestRegenGoldens -v .` prints the four frozen tables - the
// single-chip golden map, the cluster map, the e64 energy map and the
// timeline digests - in
// exactly the form the conformance files paste them, so a legitimate
// metric shift (a kernel fix, a recalibration) is a copy-paste plus a
// commit-message explanation instead of an error-prone retyping of
// float bits. The CSV goldens have their own regenerators (the
// epiphany-sweep invocations named in sweep_test.go and
// scaling_study_test.go). Without the env var the test skips, so the
// normal suite never mistakes printing for checking.

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"epiphany"
)

func TestRegenGoldens(t *testing.T) {
	if os.Getenv("EPIPHANY_REGEN") == "" {
		t.Skip("set EPIPHANY_REGEN=1 to print regenerated golden tables")
	}
	fmt.Println("// conformance_test.go: golden")
	for _, topo := range []epiphany.Topology{epiphany.TopologyE64, epiphany.TopologyE16} {
		for _, w := range epiphany.Workloads() {
			res, err := epiphany.Run(context.Background(), w, epiphany.WithTopology(topo))
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name(), topo.Name, err)
			}
			m := res.Metrics()
			fmt.Printf("\t{%q, %q}: {%d, %d, %#x, %#x},\n",
				topo.Name, w.Name(), uint64(m.Elapsed), m.TotalFlops,
				math.Float64bits(m.GFLOPS), math.Float64bits(m.PctPeak))
		}
	}
	fmt.Println("// conformance_test.go: clusterGolden")
	for _, w := range epiphany.Workloads() {
		res, err := epiphany.Run(context.Background(), w, epiphany.WithTopology(epiphany.TopologyCluster2x2))
		if err != nil {
			t.Fatalf("%s on cluster-2x2: %v", w.Name(), err)
		}
		m := res.Metrics()
		fmt.Printf("\t%q: {%d, %d, %#x, %#x, %d, %d, %d},\n",
			w.Name(), uint64(m.Elapsed), m.TotalFlops,
			math.Float64bits(m.GFLOPS), math.Float64bits(m.PctPeak),
			m.ELinkCrossings, m.ELinkCrossBytes, uint64(m.ELinkCrossTime))
	}
	fmt.Println("// conformance_energy_test.go: goldenEnergy")
	for _, w := range epiphany.Workloads() {
		res, err := epiphany.Run(context.Background(), w,
			epiphany.WithPowerModel("epiphany-iv-28nm", ""))
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		m := res.Metrics()
		b := math.Float64bits
		fmt.Printf("\t%q: {%#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x},\n",
			w.Name(), b(m.EnergyJ), b(m.AvgPowerW), b(m.GFLOPSPerWatt), b(m.EDPJs),
			b(m.Energy.CoreActiveJ), b(m.Energy.CoreIdleJ), b(m.Energy.FPUJ),
			b(m.Energy.SRAMJ), b(m.Energy.DRAMJ), b(m.Energy.MeshJ),
			b(m.Energy.ELinkJ), b(m.Energy.C2CJ), b(m.Energy.LeakageJ))
	}
	fmt.Println("// timeline_golden_test.go: timelineGolden")
	for _, d := range timelineDigests(t) {
		fmt.Printf("\t{%q, %q}: %q,\n", d.topo, d.workload, d.sha)
	}
}
