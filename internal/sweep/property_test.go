package sweep

import (
	"fmt"
	"math/rand"
	"testing"
)

// The expansion property: for any plan, Normalize+Expand produces
// exactly the cartesian product of the (deduplicated) axes - no
// duplicate cells, no holes - and the expansion order is a pure
// function of the axis *sets*: shuffling the order the axis values
// were written in, or repeating values, changes nothing.

// expandKey is a cell's identity for set comparisons.
func expandKey(c Cell) string {
	return fmt.Sprintf("%s|%s|%s", c.Workload, c.Topo, seedLabel(c.Seed))
}

// normExpand normalizes and expands, failing the test on plan errors.
func normExpand(t *testing.T, p Plan) (Plan, []Cell) {
	t.Helper()
	np, err := p.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", p, err)
	}
	return np, np.Expand()
}

func TestExpandIsCartesianProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workloadPool := []string{
		"stencil-tuned", "stencil-naive", "matmul-cannon", "matmul-offchip",
		"stream-stencil", "stream-stencil-deep",
	}
	topoPool := []string{
		"e16",
		"e64",
		"cluster-2x2",
		"2x2",
		"4x8",
		"cluster-2x2/c2c=40:0",
		"cluster-2x2/c2c=40:600",
	}
	seedPool := []uint64{1, 2, 3, 7, 11}

	pick := func(n int) []int {
		idx := rng.Perm(n)
		return idx[:1+rng.Intn(n)]
	}
	for round := 0; round < 50; round++ {
		var p Plan
		wIdx, tIdx := pick(len(workloadPool)), pick(len(topoPool))
		for _, i := range wIdx {
			p.Workloads = append(p.Workloads, workloadPool[i])
		}
		for _, i := range tIdx {
			p.Topos = append(p.Topos, topoPool[i])
		}
		if rng.Intn(2) == 0 {
			for _, i := range pick(len(seedPool)) {
				p.Seeds = append(p.Seeds, seedPool[i])
			}
		}
		np, cells := normExpand(t, p)

		// Exactly the cartesian product: the right count, no duplicates,
		// and every combination present.
		nSeeds := max(len(np.Seeds), 1)
		if want := len(np.Workloads) * len(np.Topos) * nSeeds; len(cells) != want {
			t.Fatalf("round %d: %d cells, want %d", round, len(cells), want)
		}
		seen := make(map[string]bool, len(cells))
		for _, c := range cells {
			k := expandKey(c)
			if seen[k] {
				t.Fatalf("round %d: duplicate cell %s", round, k)
			}
			seen[k] = true
		}
		for _, w := range np.Workloads {
			for _, topo := range np.Topos {
				if len(np.Seeds) == 0 {
					if !seen[fmt.Sprintf("%s|%s|-", w, topo)] {
						t.Fatalf("round %d: hole at (%s, %s)", round, w, topo)
					}
					continue
				}
				for _, s := range np.Seeds {
					if !seen[fmt.Sprintf("%s|%s|%d", w, topo, s)] {
						t.Fatalf("round %d: hole at (%s, %s, %d)", round, w, topo, s)
					}
				}
			}
		}

		// Axis-permutation stability: shuffle every axis and inject
		// duplicates; the expansion must be identical cell for cell.
		q := Plan{
			Workloads: append(shuffled(rng, p.Workloads), p.Workloads[0]),
			Topos:     append(shuffled(rng, p.Topos), p.Topos[0]),
			Seeds:     shuffledSeeds(rng, p.Seeds),
		}
		if len(q.Seeds) > 0 {
			q.Seeds = append(q.Seeds, q.Seeds[len(q.Seeds)-1])
		}
		_, cells2 := normExpand(t, q)
		if len(cells2) != len(cells) {
			t.Fatalf("round %d: permuted plan expanded to %d cells, want %d", round, len(cells2), len(cells))
		}
		for i := range cells {
			if expandKey(cells[i]) != expandKey(cells2[i]) {
				t.Fatalf("round %d: expansion order not canonical at %d: %s vs %s",
					round, i, expandKey(cells[i]), expandKey(cells2[i]))
			}
		}
	}
}

func shuffled(rng *rand.Rand, in []string) []string {
	out := append([]string(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func shuffledSeeds(rng *rand.Rand, in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
