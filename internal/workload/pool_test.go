package workload

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"epiphany/internal/mem"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// idleCounts returns the idle boards of each topology in r's pool.
func idleCounts(r *Runner) map[system.Topology]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := map[system.Topology]int{}
	for _, b := range r.idle {
		n[b.topo]++
	}
	return n
}

// scribbler writes one word into the first two SRAM blocks of every
// core, as a small kernel would, and records the boards it ran on by
// topology. While it runs it checks that no topology has more than
// Workers boards idle.
type scribbler struct {
	r    *Runner
	mu   *sync.Mutex
	seen map[string]map[*system.System]bool
	errs *[]string
}

func (s *scribbler) Name() string    { return "scribbler" }
func (s *scribbler) Validate() error { return nil }
func (s *scribbler) Run(ctx context.Context, sys *system.System) (Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	for _, sram := range sys.Chip().Fabric().SRAMs {
		sram.Store32(0x100, 1)
		sram.Store32(0x1100, 2)
	}
	counts := idleCounts(s.r)
	s.mu.Lock()
	defer s.mu.Unlock()
	gr, gc := sys.Chip().Map().ChipGrid()
	name := fmt.Sprintf("%dx%d chips, %d cores", gr, gc, sys.Chip().Map().NumCores())
	if s.seen[name] == nil {
		s.seen[name] = map[*system.System]bool{}
	}
	s.seen[name][sys] = true
	for topo, n := range counts {
		if n > s.r.Workers {
			*s.errs = append(*s.errs, fmt.Sprintf("%d idle %s boards, want at most Workers=%d", n, topo.Name, s.r.Workers))
		}
	}
	return fixedResult{}, nil
}

// TestRunnerPoolKeepsBoardsPerTopology: a Workers=2 Runner serving a
// seeded stream that mixes e16, e64 and cluster-2x2 jobs builds each
// topology at most twice - once per job of that topology in flight at
// once - and never holds more than Workers idle boards of a topology.
func TestRunnerPoolKeepsBoardsPerTopology(t *testing.T) {
	r := &Runner{Workers: 2}
	var errs []string
	w := &scribbler{r: r, mu: new(sync.Mutex), seen: map[string]map[*system.System]bool{}, errs: &errs}
	topos := system.Topologies()
	rng := rand.New(rand.NewPCG(30, 0))
	jobs := make([]Job, 60)
	for i := range jobs {
		jobs[i] = Job{Workload: w, Options: []Option{WithTopology(topos[rng.IntN(len(topos))])}}
	}
	br, err := r.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		t.Error(e)
	}
	if len(w.seen) != len(topos) {
		t.Fatalf("jobs ran on %d topologies, want %d", len(w.seen), len(topos))
	}
	built := 0
	for name, boards := range w.seen {
		if len(boards) > r.Workers {
			t.Errorf("%s: built %d boards, want at most Workers=%d", name, len(boards), r.Workers)
		}
		built += len(boards)
	}
	st := r.Boards()
	if st.Built != int64(built) || st.Built+st.Reused != int64(len(jobs)) {
		t.Errorf("Boards() = %+v, want Built %d and Built+Reused %d", st, built, len(jobs))
	}
	for topo, n := range idleCounts(r) {
		if n > r.Workers {
			t.Errorf("%d idle %s boards after the stream, want at most %d", n, topo.Name, r.Workers)
		}
	}
}

// boardHolding returns a board of topo that has allocated mb MB of DRAM
// blocks (one word stored per 4 KB block), Reset so it can be pooled.
func boardHolding(t *testing.T, topo system.Topology, mb int) *system.System {
	t.Helper()
	sys := system.NewTopology(topo)
	dram := sys.Chip().DRAM()
	for off := 0; off < mb<<20; off += 4 << 10 {
		dram.Store32(mem.Addr(off), 1)
	}
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Footprint(); got < mb<<20 {
		t.Fatalf("board holds %d bytes, want at least %d MB", got, mb)
	}
	return sys
}

// TestRunnerPoolEvictsLeastRecentlyReturned: once the idle boards hold
// more than the byte budget, the board returned longest ago goes first,
// whatever its topology; reusing a board makes it recent again.
func TestRunnerPoolEvictsLeastRecentlyReturned(t *testing.T) {
	r := &Runner{Workers: 2}
	mb := 2*poolBytesPerWorker>>20/3 + 1 // three boards pass the budget, two do not
	grid := system.Topology{Name: "2x2", ChipGridRows: 1, ChipGridCols: 1, CoreRows: 2, CoreCols: 2}
	a, b, c := boardHolding(t, system.E16, mb), boardHolding(t, system.E64, mb), boardHolding(t, grid, mb)
	r.put(system.E16, a)
	r.put(system.E64, b)
	// Taking and returning a makes b the least recently returned.
	if got := r.get(system.E16); got != a {
		t.Fatal("the idle e16 board was not reused")
	}
	r.put(system.E16, a)
	if n := len(r.idle); n != 2 {
		t.Fatalf("%d idle boards under the budget, want 2", n)
	}
	r.put(grid, c)
	if got := r.get(system.E64); got == b {
		t.Error("the least recently returned board (e64) was kept past the budget")
	}
	if got := r.get(system.E16); got != a {
		t.Error("the e16 board was evicted although the e64 board was returned before it")
	}
	if got := r.get(grid); got != c {
		t.Error("the board just returned was evicted")
	}
	if st := r.Boards(); st.Built != 1 || st.Reused != 3 {
		t.Errorf("Boards() = %+v, want 1 built (the evicted e64) and 3 reused", st)
	}
}

// TestRunnerPoolRecyclesBoardOverBudget: a board that alone holds more
// than the budget is still pooled and reused. Over budget the pool
// keeps Workers boards, evicting a board whose topology a newer idle
// board shares before the least recently returned.
func TestRunnerPoolRecyclesBoardOverBudget(t *testing.T) {
	r := &Runner{Workers: 2}
	grid := system.Topology{Name: "2x2", ChipGridRows: 1, ChipGridCols: 1, CoreRows: 2, CoreCols: 2}
	old, g, recent := boardHolding(t, system.E16, 1), boardHolding(t, grid, 1), boardHolding(t, system.E16, 1)
	big := boardHolding(t, system.E64, 2*poolBytesPerWorker>>20+1)
	r.put(system.E16, old)
	r.put(grid, g)
	r.put(system.E16, recent)
	if n := len(r.idle); n != 3 {
		t.Fatalf("%d idle boards under the budget, want 3", n)
	}
	r.put(system.E64, big)
	if n := len(r.idle); n != r.Workers || r.idle[0].sys != recent || r.idle[1].sys != big {
		t.Fatalf("%d idle boards over the budget, want the newer e16 and the board over budget", n)
	}
	if got := r.get(system.E64); got != big {
		t.Fatal("the board over budget was not reused")
	}
	if st := r.Boards(); st.Built != 0 || st.Reused != 1 {
		t.Errorf("Boards() = %+v, want 0 built and 1 reused", st)
	}
}

// TestRunnerPoolBoundsSmallBoards: boards that wrote little still
// charge the pool their fixed cost, so a stream of boards of distinct
// topologies (a daemon's clients choosing C2C overrides) cannot pile up
// in it: the idle boards stay within the budget.
func TestRunnerPoolBoundsSmallBoards(t *testing.T) {
	r := &Runner{Workers: 2}
	var size int
	for i := range 300 {
		topo := system.E16.WithC2C(sim.Time(i+1), 0)
		sys := system.NewTopology(topo)
		sys.Chip().Fabric().SRAMs[0].Store32(0, 1)
		if err := sys.Reset(); err != nil {
			t.Fatal(err)
		}
		size = sys.Footprint()
		r.put(topo, sys)
	}
	budget := r.Workers * poolBytesPerWorker
	if r.idleBytes > budget {
		t.Errorf("idle boards hold %d bytes, want at most the %d-byte budget", r.idleBytes, budget)
	}
	// A pooled e16 holds over 100 KB beyond its blocks once it has run
	// (its core structures and idle coroutine stacks).
	if n, most := len(r.idle), budget/(100<<10); n > most {
		t.Errorf("%d idle boards charged %d bytes each, want at most %d", n, size, most)
	}
	if n := len(r.idle); n < 2 || r.idle[n-1].topo != system.E16.WithC2C(300, 0) {
		t.Error("the board just returned was not kept")
	}
}
