package bench

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"epiphany/internal/sim"
)

// cell parses a numeric cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 7)
	s := tab.String()
	for _, want := range []string{"Table X", "demo", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering misses %q:\n%s", want, s)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tab := Fig2()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// DMA bandwidth strictly increasing with size; direct flat.
	prev := 0.0
	for i := range tab.Rows {
		dma := cell(t, tab, i, 1)
		if dma <= prev {
			t.Fatalf("DMA bandwidth not increasing at row %d", i)
		}
		prev = dma
	}
	last := len(tab.Rows) - 1
	if dma := cell(t, tab, last, 1); dma < 1.85 {
		t.Fatalf("large-message DMA = %.2f GB/s, want ~1.9", dma)
	}
	if direct := cell(t, tab, last, 2); direct < 0.3 || direct > 0.45 {
		t.Fatalf("direct = %.2f GB/s, want ~0.36", direct)
	}
	// Small messages: direct beats DMA.
	if cell(t, tab, 0, 2) <= cell(t, tab, 0, 1) {
		t.Fatal("direct should win at 16 bytes")
	}
}

func TestFig3Crossover(t *testing.T) {
	tab := Fig3()
	// Find the winner flip; it must happen between 384 and 768 bytes.
	flip := 0
	for i, r := range tab.Rows {
		if r[3] == "DMA" {
			n, _ := strconv.Atoi(tab.Rows[i][0])
			flip = n
			break
		}
	}
	if flip < 384 || flip > 768 {
		t.Fatalf("crossover at %d bytes, want ~500", flip)
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	first := cell(t, tab, 0, 3)
	last := cell(t, tab, len(tab.Rows)-1, 3)
	if first < 11.0 || first > 11.8 {
		t.Fatalf("distance-1 latency %.2f ns/word, want ~11.1-11.4", first)
	}
	if last < 12.4 || last > 13.2 {
		t.Fatalf("distance-14 latency %.2f ns/word, want ~12.6-12.9", last)
	}
	if last <= first {
		t.Fatal("latency must grow with distance")
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2()
	var sum float64
	for i := range tab.Rows {
		sum += cell(t, tab, i, 2)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("utilizations sum to %.3f, want 1.0 (saturated)", sum)
	}
	// Row 0 dominates row 1.
	row0 := cell(t, tab, 0, 2) + cell(t, tab, 1, 2)
	if row0 < 0.6 {
		t.Fatalf("row-0 share %.2f, want > 0.6", row0)
	}
}

func TestTable3Shape(t *testing.T) {
	tab := Table3()
	if len(tab.Rows) != 64 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	starved := 0
	var topShare float64
	for i, r := range tab.Rows {
		iters, _ := strconv.Atoi(r[1])
		if iters == 0 {
			starved++
		}
		if strings.HasSuffix(r[0], ",7") && i/8 < 4 {
			topShare += cell(t, tab, i, 2)
		}
	}
	if starved < 15 || starved > 35 {
		t.Fatalf("%d cores starved, paper: 24", starved)
	}
	if topShare < 0.6 || topShare > 0.95 {
		t.Fatalf("top-4 share %.2f, paper: 0.75", topShare)
	}
}

func TestFig5Fig6Consistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stencil sweeps take a second")
	}
	f5 := Fig5()
	for i := range f5.Rows {
		pct := cell(t, f5, i, 2)
		if pct < 78 || pct > 97 {
			t.Errorf("Fig5 row %d: %.1f%% of peak outside the paper's 81-95 band", i, pct)
		}
	}
	f6 := Fig6()
	for i := range f6.Rows {
		if nc, c := cell(t, f6, i, 1), cell(t, f6, i, 2); c >= nc {
			t.Errorf("Fig6 row %d: comm (%v) not below no-comm (%v)", i, c, nc)
		}
	}
}

func TestTable4Monotone(t *testing.T) {
	tab := Table4()
	prev := 0.0
	for i := range tab.Rows {
		g := cell(t, tab, i, 1)
		if g <= prev {
			t.Fatalf("Table IV not monotone at row %d", i)
		}
		prev = g
	}
	if prev < 1.05 {
		t.Fatalf("32x32 single core = %.2f GFLOPS, paper: 1.15", prev)
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) != 15 {
		t.Fatalf("registry has %d experiments, want 15 (every table and figure)", len(Experiments))
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Fatalf("experiment %q has no runner", e.Name)
		}
	}
	for _, want := range []string{"fig2", "fig3", "table1", "table2", "table3",
		"fig5", "fig6", "fig7", "fig8", "table4", "table5", "table6",
		"fig14", "fig15", "table7"} {
		if _, ok := ByName(want); !ok {
			t.Fatalf("experiment %q missing", want)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestExtrasRegistry(t *testing.T) {
	if len(Extras) != 5 {
		t.Fatalf("extras = %d, want 5", len(Extras))
	}
	for _, name := range []string{"ext-stream", "ext-topo", "abl-summa"} {
		if _, ok := ByName(name); !ok {
			t.Fatalf("%s not resolvable", name)
		}
	}
}

func TestTopologyScalingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the registry across three topologies")
	}
	tab := ExtTopologyScaling()
	if len(tab.Rows) != 12 {
		t.Fatalf("topology table has %d rows, want 3 topologies x 4 workloads", len(tab.Rows))
	}
	// Cluster rows whose groups span chips must show x-chip costs.
	crossed := 0
	for _, r := range tab.Rows {
		if r[0] == "cluster-2x2" && r[5] != "-" {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no cluster row reports chip-boundary traffic")
	}
}

func TestAblationFairnessShape(t *testing.T) {
	tab := AblationELinkFairness()
	// Row 0: aggregate MB/s identical across arbiters.
	if cell(t, tab, 0, 1) != cell(t, tab, 0, 2) {
		t.Fatalf("aggregate bandwidth differs: %v", tab.Rows[0])
	}
	// Row 1: starvation only under the calibrated arbiter.
	cal, _ := strconv.Atoi(tab.Rows[1][1])
	fair, _ := strconv.Atoi(tab.Rows[1][2])
	if cal < 15 || fair != 0 {
		t.Fatalf("starved calibrated=%d fair=%d", cal, fair)
	}
}

func TestAblationSummaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("several matmuls")
	}
	tab := AblationCannonVsSumma()
	for i := range tab.Rows {
		if adv := cell(t, tab, i, 4); adv <= 0 {
			t.Errorf("row %d: Cannon should win on the mesh (adv %.1f%%)", i, adv)
		}
	}
}

func TestExtStreamStencilShape(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 512x512 grid")
	}
	tab := ExtStreamStencil()
	// Time decreases and DRAM traffic decreases as T grows.
	for i := 1; i < len(tab.Rows); i++ {
		if cell(t, tab, i, 1) >= cell(t, tab, i-1, 1) {
			t.Errorf("time not decreasing at row %d", i)
		}
		if cell(t, tab, i, 3) >= cell(t, tab, i-1, 3) {
			t.Errorf("traffic not decreasing at row %d", i)
		}
	}
}

func TestRemainingGeneratorsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweeps take a few seconds")
	}
	for name, gen := range map[string]func() *Table{
		"fig7": Fig7, "fig8": Fig8, "table5": Table5,
		"fig14": Fig14, "fig15": Fig15, "table7": Table7,
	} {
		tab := gen()
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		if tab.String() == "" {
			t.Errorf("%s renders empty", name)
		}
	}
}

func TestAblationCommSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip stencils")
	}
	tab := AblationStencilComm()
	for i := range tab.Rows {
		if adv := cell(t, tab, i, 3); adv <= 0 {
			t.Errorf("row %d: DMA should win (adv %.1f%%)", i, adv)
		}
	}
}

// TestLeakELinkWindows: the eLink experiments stop their writers at the
// window's end, mid-transfer; the writers are unwound, so no goroutine
// outlives the run once the chip is collected.
func TestLeakELinkWindows(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	Table2()
	elinkFairnessRun(false, 2*sim.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the eLink windows, %d before", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
