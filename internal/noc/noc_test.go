package noc

import (
	"slices"
	"sort"
	"testing"

	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

func newTestMesh() (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	return eng, NewMesh(eng, mem.NewMap(8, 8))
}

func TestDistance(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	cases := []struct {
		a, b, d int
	}{
		{idx(0, 0), idx(0, 1), 1},
		{idx(0, 0), idx(1, 1), 2},
		{idx(0, 0), idx(7, 7), 14},
		{idx(3, 4), idx(3, 4), 0},
		{idx(7, 0), idx(0, 7), 14},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); got != c.d {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestDeliverLatencyScalesWithHops(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	n := 80
	ser := LinkSerialization(n)
	a1 := m.Deliver(0, idx(0, 0), idx(0, 1), n)
	if want := HopLatency + ser; a1 != want {
		t.Fatalf("1-hop arrival = %v, want %v", a1, want)
	}
	a14 := m.Deliver(1000, idx(0, 0), idx(7, 7), n)
	if want := sim.Time(1000) + 14*HopLatency + ser; a14 != want {
		t.Fatalf("14-hop arrival = %v, want %v", a14, want)
	}
}

func TestDeliverTableIShape(t *testing.T) {
	// Reproduce Table I's model: an 80-byte message as 20 direct word
	// writes; per-word time = (20*DirectWriteWordPeriod + hops*HopLatency)
	// / 20. Check the two calibration anchors: 11.12 ns at distance 1 and
	// ~12.6 ns at distance 14.
	perWord := func(hops int) float64 {
		total := 20*DirectWriteWordPeriod + sim.Time(hops)*HopLatency
		return total.Nanoseconds() / 20
	}
	if got := perWord(1); got < 11.0 || got > 11.25 {
		t.Errorf("distance 1: %.2f ns/word, want ~11.12", got)
	}
	if got := perWord(14); got < 12.3 || got > 12.9 {
		t.Errorf("distance 14: %.2f ns/word, want ~12.57", got)
	}
	// Monotone in distance.
	prev := 0.0
	for h := 1; h <= 14; h++ {
		cur := perWord(h)
		if cur <= prev {
			t.Fatalf("per-word time not increasing at %d hops", h)
		}
		prev = cur
	}
}

func TestDeliverContentionSerializes(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	n := 1024
	ser := LinkSerialization(n)
	// Two messages crossing the same eastbound link at the same instant.
	a := m.Deliver(0, idx(0, 0), idx(0, 2), n)
	b := m.Deliver(0, idx(0, 1), idx(0, 2), n)
	// First message unqueued.
	if want := 2*HopLatency + ser; a != want {
		t.Fatalf("first arrival %v, want %v", a, want)
	}
	// Second must queue behind the first on link (0,1)->(0,2).
	if b <= a {
		t.Fatalf("contended message arrived at %v, not after %v", b, a)
	}
	// Disjoint paths: no interference.
	c := m.Deliver(0, idx(5, 0), idx(5, 1), n)
	if want := HopLatency + ser; c != want {
		t.Fatalf("disjoint arrival %v, want %v", c, want)
	}
}

func TestDeliverSelfAndEmpty(t *testing.T) {
	_, m := newTestMesh()
	if got := m.Deliver(42, 3, 3, 100); got != 42 {
		t.Fatalf("self-delivery time %v, want 42", got)
	}
	if got := m.Deliver(42, 0, 1, 0); got != 42 {
		t.Fatalf("empty delivery time %v, want 42", got)
	}
}

func TestDeliverWestAndNorthRoutes(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	n := 64
	ser := LinkSerialization(n)
	// Westward then northward: (3,5) -> (1,2): 3 west hops + 2 north hops.
	a := m.Deliver(0, idx(3, 5), idx(1, 2), n)
	if want := 5*HopLatency + ser; a != want {
		t.Fatalf("west/north arrival %v, want %v", a, want)
	}
	if got := m.HopBytes(); got != 5*64 {
		t.Fatalf("byte-hops %d, want %d", got, 5*64)
	}
}

func TestReadWordRoundTrip(t *testing.T) {
	_, m := newTestMesh()
	idx := m.Map().CoreIndex
	near := m.ReadWord(0, idx(0, 0), idx(0, 1))
	far := m.ReadWord(0, idx(0, 0), idx(7, 7))
	if near >= far {
		t.Fatalf("read near=%v far=%v, want near < far", near, far)
	}
	if near != ReadWordRoundTrip+2*HopLatency {
		t.Fatalf("near read = %v", near)
	}
	// Both reads charge the energy counters: 4 bytes each way per hop
	// (1 hop + 14 hops here), and nothing to the chip-to-chip read
	// counter on a single chip.
	if got, want := m.HopBytes(), uint64(4*2*(1+14)); got != want {
		t.Fatalf("read hop bytes = %d, want %d", got, want)
	}
	if m.CrossReadBytes() != 0 {
		t.Fatalf("single-chip read crossed a chip boundary: %d bytes", m.CrossReadBytes())
	}
}

// TestReadWordEnergyCountersCrossChip pins the read network's energy
// accounting on a multi-chip board: boundary legs accrue to the
// chip-to-chip read counter (kept apart from the frozen CrossBytes
// metric), on-chip legs to HopBytes, and Reset clears both.
func TestReadWordEnergyCountersCrossChip(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, mem.NewBoardMap(1, 2, 4, 4)) // two 4x4 chips side by side
	idx := m.Map().CoreIndex
	m.ReadWord(0, idx(0, 0), idx(0, 7)) // 7 hops, 1 of them a boundary crossing
	if got, want := m.HopBytes(), uint64(4*2*6); got != want {
		t.Fatalf("on-chip read hop bytes = %d, want %d", got, want)
	}
	if got, want := m.CrossReadBytes(), uint64(4*2*1); got != want {
		t.Fatalf("cross read bytes = %d, want %d", got, want)
	}
	if m.CrossBytes() != 0 {
		t.Fatalf("read traffic leaked into the time-domain CrossBytes metric: %d", m.CrossBytes())
	}
	m.Reset()
	if m.HopBytes() != 0 || m.CrossReadBytes() != 0 {
		t.Fatalf("Reset kept read counters: hop=%d cross=%d", m.HopBytes(), m.CrossReadBytes())
	}
}

func TestDMASerialization(t *testing.T) {
	if got := DMASerialization(2048, 8); got != 256*DMABeatPeriod {
		t.Fatalf("2KB dword = %v", got)
	}
	if got := DMASerialization(2048, 4); got != 512*DMAWordPeriod {
		t.Fatalf("2KB word = %v", got)
	}
	// Doubleword mode is twice the bandwidth of word mode.
	if DMASerialization(4096, 8)*2 != DMASerialization(4096, 4)*2*2/2*2/2*2 {
		// (guard against accidental equal rates)
	}
	if !(DMASerialization(4096, 8) < DMASerialization(4096, 4)) {
		t.Fatal("dword DMA should be faster than word DMA")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad beat size should panic")
		}
	}()
	DMASerialization(10, 3)
}

func TestDMABandwidthPlateau(t *testing.T) {
	// Figure 2 anchor: large reused-descriptor DMA transfers approach 2 GB/s.
	n := 8192
	dur := DMAStartCost + DMASerialization(n, 8)
	gbps := float64(n) / dur.Nanoseconds()
	if gbps < 1.85 || gbps > 2.05 {
		t.Fatalf("8KB DMA bandwidth %.2f GB/s, want ~1.9", gbps)
	}
}

func TestDMADirectCrossover(t *testing.T) {
	// Figure 3 anchor: with a fresh descriptor each time (as a latency
	// benchmark does), DMA beats direct writes only beyond ~500 bytes.
	directT := func(n int) sim.Time { return sim.Time(n/4) * DirectWriteWordPeriod }
	dmaT := func(n int) sim.Time {
		return DMADescriptorBuildCost + DMAStartCost + DMASerialization(n, 8)
	}
	if !(directT(256) < dmaT(256)) {
		t.Errorf("at 256 B direct should beat DMA (direct %v, dma %v)", directT(256), dmaT(256))
	}
	if !(dmaT(1024) < directT(1024)) {
		t.Errorf("at 1 KB DMA should beat direct (direct %v, dma %v)", directT(1024), dmaT(1024))
	}
	// Crossover in (256, 1024), near 500.
	cross := 0
	for n := 4; n <= 4096; n += 4 {
		if dmaT(n) <= directT(n) {
			cross = n
			break
		}
	}
	if cross < 300 || cross > 800 {
		t.Fatalf("crossover at %d bytes, want ~500", cross)
	}
}

func elinkSaturate(t *testing.T, writers []int, window sim.Time) *ELink {
	t.Helper()
	eng := sim.NewEngine()
	el := NewELink(eng, 8, 8)
	for _, core := range writers {
		core := core
		done := sim.NewCond(eng, "written")
		eng.Spawn("writer", func(p *sim.Proc) {
			for {
				el.Submit(core, 2048, done.Broadcast)
				p.WaitCond(done)
				if p.Now() >= window {
					return
				}
			}
		})
	}
	eng.At(window, func() { eng.Stop() })
	if err := eng.RunUntil(window); err != nil {
		t.Fatal(err)
	}
	return el
}

func TestELinkThroughputCap(t *testing.T) {
	// All 64 cores saturating the link must move ~150 MB/s aggregate.
	writers := make([]int, 64)
	for i := range writers {
		writers[i] = i
	}
	window := 20 * sim.Millisecond
	el := elinkSaturate(t, writers, window)
	var total uint64
	for i := 0; i < 64; i++ {
		total += el.ServedBytes(i)
	}
	mbps := float64(total) / window.Seconds() / 1e6
	if mbps < 140 || mbps > 155 {
		t.Fatalf("aggregate eLink write throughput %.1f MB/s, want ~150", mbps)
	}
}

func TestELinkTable2Gradient(t *testing.T) {
	// Table II scenario: a 2x2 workgroup at (0,0) writing 2 KB blocks.
	// The paper reports a strict gradient of shares summing to ~1.0
	// (0.41/0.33/0.17/0.08). We reproduce a strict 4-level gradient with
	// row position dominating; see EXPERIMENTS.md for the in-row ordering
	// caveat.
	cores := []int{0, 1, 8, 9} // (0,0) (0,1) (1,0) (1,1)
	el := elinkSaturate(t, cores, 20*sim.Millisecond)
	shares := make([]float64, 4)
	var sum float64
	for i, c := range cores {
		shares[i] = el.Utilization(c)
		sum += shares[i]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum %v, want 1.0 (saturated link)", sum)
	}
	// Row 0 cores together dominate row 1 cores ~3:1 as in the paper.
	row0, row1 := shares[0]+shares[1], shares[2]+shares[3]
	if row0/row1 < 2 || row0/row1 > 4.5 {
		t.Fatalf("row0/row1 share ratio %.2f, want ~3", row0/row1)
	}
	// All four shares distinct and nonzero (graded, not RR-equal).
	s := append([]float64(nil), shares...)
	sort.Float64s(s)
	for i := 0; i < 3; i++ {
		if s[i+1]-s[i] < 0.01 {
			t.Fatalf("shares %v not a clear gradient", shares)
		}
	}
	if s[0] < 0.03 {
		t.Fatalf("weakest of 4 writers starved (%v); Table II has 0.08", s[0])
	}
}

func TestELinkTable3Starvation(t *testing.T) {
	// Table III scenario: all 64 cores write. Expect: the top of column 7
	// takes the lion's share almost equally; a middle tier gets ~2%; a
	// long tail gets a handful of blocks; many cores get exactly zero.
	writers := make([]int, 64)
	for i := range writers {
		writers[i] = i
	}
	el := elinkSaturate(t, writers, 100*sim.Millisecond)

	top := []int{7, 15, 23, 31} // (0..3, 7)
	var topShare float64
	for _, c := range top {
		u := el.Utilization(c)
		topShare += u
		if u < 0.15 || u > 0.25 {
			t.Errorf("top core %d share %.3f, want ~0.19", c, u)
		}
	}
	if topShare < 0.6 || topShare > 0.9 {
		t.Fatalf("top-4 share %.2f, want ~0.75", topShare)
	}
	// (0,6) should be in the ~2% tier.
	if u := el.Utilization(6); u < 0.005 || u > 0.05 {
		t.Errorf("core (0,6) share %.4f, want ~0.02", u)
	}
	// Count fully starved cores: the paper reports 24 with zero
	// iterations; require a substantial starved population.
	starved := 0
	for i := 0; i < 64; i++ {
		if el.Served(i) == 0 {
			starved++
		}
	}
	if starved < 10 {
		t.Fatalf("only %d cores starved; Table III shows ~24", starved)
	}
	// And the far corner must be among them.
	if el.Served(56) != 0 { // (7,0)
		t.Errorf("core (7,0) served %d blocks, want 0", el.Served(56))
	}
}

func TestELinkDeterminism(t *testing.T) {
	run := func() []uint64 {
		writers := []int{0, 7, 9, 35, 63}
		el := elinkSaturate(t, writers, 5*sim.Millisecond)
		out := make([]uint64, 64)
		for i := range out {
			out[i] = el.ServedBytes(i)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic eLink service at core %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestELinkSingleWriterGetsFullRate(t *testing.T) {
	el := elinkSaturate(t, []int{56}, 10*sim.Millisecond) // the weakest core
	// Alone, even the most penalized core gets the whole link.
	mbps := float64(el.ServedBytes(56)) / (10 * sim.Millisecond).Seconds() / 1e6
	if mbps < 140 {
		t.Fatalf("solo writer got %.1f MB/s, want ~150", mbps)
	}
	if el.Utilization(56) != 1.0 {
		t.Fatalf("solo utilization %v", el.Utilization(56))
	}
}

// TestELinkSubmitCallback: Submit returns at once and runs its
// callback when the link has carried the bytes.
func TestELinkSubmitCallback(t *testing.T) {
	eng := sim.NewEngine()
	el := NewELink(eng, 8, 8)
	var doneAt sim.Time
	eng.At(0, func() {
		el.Submit(0, 1500, func() { doneAt = eng.Now() })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(1500) * ELinkBytePeriod; doneAt != want {
		t.Fatalf("submitted write done at %v, want %v", doneAt, want)
	}
	if el.Served(0) != 1 || el.ServedBytes(0) != 1500 {
		t.Fatalf("served %d requests, %d bytes; want 1, 1500", el.Served(0), el.ServedBytes(0))
	}
}

func TestMeshResetRestoresPristineState(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, mem.NewBoardMap(2, 2, 4, 4))
	idx := m.Map().CoreIndex
	// A second message on the same route queues behind the first's link
	// bookings; a reset mesh must book and queue exactly as a fresh one.
	first := m.Deliver(0, idx(0, 0), idx(3, 7), 512)
	second := m.Deliver(0, idx(0, 0), idx(3, 7), 512)
	if second <= first {
		t.Fatalf("fresh mesh: second delivery arrives at %v, not queued behind %v", second, first)
	}
	m.ReadWord(0, idx(0, 0), idx(3, 7))
	m.Reset()
	if m.HopBytes() != 0 || m.CrossReadBytes() != 0 || m.Crossings() != 0 || m.CrossBytes() != 0 || m.CrossTime() != 0 {
		t.Fatalf("stats survived Reset: hop bytes=%d crossings=%d", m.HopBytes(), m.Crossings())
	}
	if again := m.Deliver(0, idx(0, 0), idx(3, 7), 512); again != first {
		t.Fatalf("post-Reset delivery arrives at %v, fresh mesh gave %v", again, first)
	}
	if again := m.Deliver(0, idx(0, 0), idx(3, 7), 512); again != second {
		t.Fatalf("post-Reset second delivery arrives at %v, fresh mesh gave %v", again, second)
	}
}

// elinkResubmits drives el with completion callbacks that Submit again:
// five cores each write a chain of requests, every completion queuing
// the core's next request, and every third completion also queuing a
// one-off 64-byte write for the core's mirror (63 - core). It returns
// the cores in the order their requests were served, and per core the
// requests and bytes the callbacks saw complete.
func elinkResubmits(eng *sim.Engine, el *ELink) (order []int, served, bytes []uint64) {
	served, bytes = make([]uint64, 64), make([]uint64, 64)
	var submit func(core, n, left int)
	submit = func(core, n, left int) {
		el.Submit(core, n, func() {
			order = append(order, core)
			served[core]++
			bytes[core] += uint64(n)
			if len(order)%3 == 0 {
				submit(63-core, 64, 0)
			}
			if left > 0 {
				submit(core, n+8, left-1)
			}
		})
	}
	eng.At(0, func() {
		for i, core := range []int{0, 7, 9, 35, 63} {
			submit(core, 128*(i+1), 6)
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return order, served, bytes
}

// TestELinkResubmitFromCallback: a completion callback that Submits
// again reuses the request just served. The served order must be the
// same on a fresh arbiter and on a reset one whose requests are all
// recycled, and the arbiter's per-core Served/ServedBytes must match
// what the callbacks saw complete.
func TestELinkResubmitFromCallback(t *testing.T) {
	eng := sim.NewEngine()
	el := NewELink(eng, 8, 8)
	order, served, bytes := elinkResubmits(eng, el)
	// The order an arbiter that allocates a fresh request per Submit
	// serves.
	want := []int{0, 7, 7, 7, 7, 7, 7, 7, 63, 63, 63, 63, 63, 63, 63, 0, 0, 0, 63, 9,
		0, 63, 0, 0, 63, 9, 0, 63, 0, 0, 63, 9, 35, 28, 9, 9, 54, 9, 9, 54, 35, 35, 28, 35,
		35, 28, 35, 35, 28, 56, 56, 7}
	if !slices.Equal(order, want) {
		t.Fatalf("served order\n%v\nwant\n%v", order, want)
	}
	check := func(name string, el *ELink) {
		for c := 0; c < 64; c++ {
			if el.Served(c) != served[c] || el.ServedBytes(c) != bytes[c] {
				t.Errorf("%s: core %d served %d requests, %d bytes; callbacks saw %d, %d",
					name, c, el.Served(c), el.ServedBytes(c), served[c], bytes[c])
			}
		}
	}
	check("fresh", el)
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	el.Reset()
	again, served, bytes := elinkResubmits(eng, el)
	if !slices.Equal(again, order) {
		t.Fatalf("reset arbiter served\n%v\nfresh one\n%v", again, order)
	}
	check("reset", el)
}
