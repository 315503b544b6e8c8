package epiphany_test

// The bench golden pins every table epiphany-bench regenerates: the
// Table.String() of each entry in bench.Experiments and bench.Extras,
// in registry order, one blank line after each. The tables carry no
// wall-clock figure, so every byte is simulated time or a count. A
// legitimate change reprints the file with `EPIPHANY_REGEN=1 go test
// -run TestRegenGoldens -v .` (the text after its
// "// testdata/bench_golden.txt" line).

import (
	"os"
	"strings"
	"testing"

	"epiphany/internal/bench"
)

// benchTables renders every paper experiment and extra in registry order.
func benchTables() string {
	var b strings.Builder
	for _, list := range [][]bench.Experiment{bench.Experiments, bench.Extras} {
		for _, e := range list {
			b.WriteString(e.Run().String())
			b.WriteString("\n")
		}
	}
	return b.String()
}

func TestBenchTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every paper table")
	}
	want, err := os.ReadFile("testdata/bench_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := benchTables(); got != string(want) {
		t.Errorf("bench tables drifted from testdata/bench_golden.txt;\nregenerate with `EPIPHANY_REGEN=1 go test -run TestRegenGoldens -v .` and explain why in the commit message\n got:\n%s", got)
	}
}
