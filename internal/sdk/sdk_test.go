package sdk

import (
	"testing"

	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

func newChip() (*sim.Engine, *ecore.Chip) {
	eng := sim.NewEngine()
	return eng, ecore.NewChip(eng, 8, 8)
}

// mustWorkgroup is NewWorkgroup for groups the test knows are valid.
func mustWorkgroup(t *testing.T, ch *ecore.Chip, originRow, originCol, rows, cols int) *Workgroup {
	t.Helper()
	w, err := NewWorkgroup(ch, originRow, originCol, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkgroupValidation(t *testing.T) {
	_, ch := newChip()
	if _, err := NewWorkgroup(ch, 0, 0, 8, 8); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][4]int{{0, 0, 9, 8}, {1, 0, 8, 8}, {0, 7, 1, 2}, {0, 0, 0, 1}, {-1, 0, 1, 1}} {
		if _, err := NewWorkgroup(ch, bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("workgroup %v accepted", bad)
		}
	}
}

func TestWorkgroupMapping(t *testing.T) {
	_, ch := newChip()
	w := mustWorkgroup(t, ch, 2, 3, 4, 4)
	if w.Size() != 16 {
		t.Fatalf("size = %d", w.Size())
	}
	idx := w.CoreIndex(1, 2)
	if r, c := ch.Map().CoreCoords(idx); r != 3 || c != 5 {
		t.Fatalf("CoreIndex(1,2) -> chip (%d,%d), want (3,5)", r, c)
	}
	if w.Rank(1, 2) != 6 {
		t.Fatalf("rank = %d", w.Rank(1, 2))
	}
	gr, gc, ok := w.GroupCoords(ch.CoreAt(3, 5))
	if !ok || gr != 1 || gc != 2 {
		t.Fatalf("GroupCoords = (%d,%d,%v)", gr, gc, ok)
	}
	if _, _, ok := w.GroupCoords(ch.CoreAt(0, 0)); ok {
		t.Fatal("core outside group reported as member")
	}
}

func TestNeighbourClampAndWrap(t *testing.T) {
	_, ch := newChip()
	w := mustWorkgroup(t, ch, 0, 0, 4, 4)
	if _, ok := w.Neighbour(0, 0, -1, 0, Clamp); ok {
		t.Fatal("clamped neighbour above top row should not exist")
	}
	idx, ok := w.Neighbour(0, 0, -1, 0, Wrap)
	if !ok {
		t.Fatal("wrapped neighbour must exist")
	}
	if r, c := ch.Map().CoreCoords(idx); r != 3 || c != 0 {
		t.Fatalf("wrap(-1,0) from (0,0) = (%d,%d), want (3,0)", r, c)
	}
	idx, _ = w.Neighbour(2, 3, 0, 1, Wrap)
	if r, c := ch.Map().CoreCoords(idx); r != 2 || c != 0 {
		t.Fatalf("wrap east from col 3 = (%d,%d), want (2,0)", r, c)
	}
}

func TestReserveSDKConflicts(t *testing.T) {
	l := mem.NewLayout()
	if err := ReserveSDK(l); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PlaceAt("data", SDKBase, 16); err == nil {
		t.Fatal("overlap with SDK region not detected")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, ch := newChip()
	w := mustWorkgroup(t, ch, 0, 0, 2, 4)
	arrive := make([]sim.Time, w.Size())
	depart := make([]sim.Time, w.Size())
	w.Launch("k", func(c *ecore.Core, gr, gc int) {
		b := NewBarrier(w, gr, gc)
		rank := w.Rank(gr, gc)
		// Deliberately skewed arrival times.
		c.Idle(sim.Cycles(uint64(rank) * 50))
		arrive[rank] = c.Now()
		b.Wait(c)
		depart[rank] = c.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var latest sim.Time
	for _, a := range arrive {
		if a > latest {
			latest = a
		}
	}
	for rank, d := range depart {
		if d < latest {
			t.Fatalf("rank %d departed at %v, before last arrival %v", rank, d, latest)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	eng, ch := newChip()
	w := mustWorkgroup(t, ch, 0, 0, 2, 2)
	counts := make([]int, w.Size())
	w.Launch("k", func(c *ecore.Core, gr, gc int) {
		b := NewBarrier(w, gr, gc)
		for i := 0; i < 5; i++ {
			c.Idle(sim.Cycles(uint64((gr*2+gc)*7 + i)))
			b.Wait(c)
			counts[w.Rank(gr, gc)]++
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, n := range counts {
		if n != 5 {
			t.Fatalf("rank %d passed %d barriers, want 5", rank, n)
		}
	}
}

func TestBarrierSingleCore(t *testing.T) {
	eng, ch := newChip()
	w := mustWorkgroup(t, ch, 0, 0, 1, 1)
	w.Launch("k", func(c *ecore.Core, gr, gc int) {
		b := NewBarrier(w, gr, gc)
		b.Wait(c)
		b.Wait(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	eng, ch := newChip()
	mu := NewMutex(ch, 0, 0x7F00)
	w := mustWorkgroup(t, ch, 0, 0, 2, 2)
	inside := 0
	maxInside := 0
	total := 0
	w.Launch("k", func(c *ecore.Core, gr, gc int) {
		for i := 0; i < 10; i++ {
			mu.Lock(c)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			c.Idle(sim.Cycles(20)) // critical section
			total++
			inside--
			mu.Unlock(c)
			c.Idle(sim.Cycles(uint64(gr*31 + gc*17)))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d cores at once", maxInside)
	}
	if total != 40 || mu.Acquisitions() != 40 {
		t.Fatalf("total = %d, acquisitions = %d, want 40", total, mu.Acquisitions())
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	eng, ch := newChip()
	mu := NewMutex(ch, 0, 0x7F00)
	ch.Launch(0, "owner", func(c *ecore.Core) {
		mu.Lock(c)
		c.Idle(sim.Second)
	})
	ch.Launch(1, "thief", func(c *ecore.Core) {
		c.Idle(sim.Cycles(100))
		mu.Unlock(c)
	})
	if err := eng.Run(); err == nil {
		t.Fatal("unlock by non-owner should fail the simulation")
	}
}

func TestMutexUncontendedCost(t *testing.T) {
	eng, ch := newChip()
	mu := NewMutex(ch, 0, 0x7F00)
	var elapsed sim.Time
	ch.Launch(63, "k", func(c *ecore.Core) { // far corner
		start := c.Now()
		mu.Lock(c)
		mu.Unlock(c)
		elapsed = c.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// One round trip plus a posted store, over the hops between them.
	hops := sim.Time(ch.Fabric().Mesh.Distance(63, 0))
	if want := noc.ReadWordRoundTrip + 2*hops*noc.HopLatency + sim.Cycle; elapsed != want {
		t.Fatalf("uncontended lock/unlock = %v, want %v", elapsed, want)
	}
}

func TestLaunchNamesAndProcs(t *testing.T) {
	eng, ch := newChip()
	w := mustWorkgroup(t, ch, 4, 4, 2, 2)
	procs := w.Launch("kern", func(c *ecore.Core, gr, gc int) {})
	if len(procs) != 4 {
		t.Fatalf("procs = %d", len(procs))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if !p.Finished() {
			t.Fatal("proc not finished")
		}
	}
}
