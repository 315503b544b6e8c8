package ecore

import (
	"testing"

	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

// postedRounds launches a kernel on core 0 of an e64 chip that issues
// one round of every posted-write kind each time round is called:
// StoreGlobal32 and CopyWordsTo, each to another core's SRAM and to
// shared DRAM. round runs the engine until everything has landed; stop
// ends the kernel.
func postedRounds(tb testing.TB) (ch *Chip, round, stop func()) {
	return kernelRounds(tb, func(c *Core) {
		c.StoreGlobal32(c.GlobalOn(1, 1, 0x100), 1)
		c.StoreGlobal32(mem.DRAMBase+0x100, 2)
		c.CopyWordsTo(c.GlobalOn(1, 1, 0x200), 0, 16)
		c.CopyWordsTo(mem.DRAMBase+0x200, 0, 16)
	})
}

// kernelRounds launches a kernel on core 0 of an e64 chip, whose first
// 16 SRAM words hold 1..16, that runs body once each time round is
// called. round runs the engine until the kernel parks again; stop
// ends the kernel.
func kernelRounds(tb testing.TB, body func(c *Core)) (ch *Chip, round, stop func()) {
	tb.Helper()
	eng, ch := newChip()
	for i := 0; i < 16; i++ {
		ch.Core(0).Local().Store32(mem.Addr(4*i), uint32(i+1))
	}
	gate := sim.NewCond(eng, "round")
	done := false
	ch.Launch(0, "poster", func(c *Core) {
		for {
			c.Proc().WaitCond(gate)
			if done {
				return
			}
			body(c)
		}
	})
	eng.Stop() // the poster parks on gate between rounds
	kick := gate.Broadcast
	round = func() {
		eng.At(eng.Now(), kick)
		if err := eng.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	stop = func() {
		done = true
		round()
	}
	// The kernel starts and runs its first round; a second grows every
	// free list and queue to what a round needs.
	round()
	round()
	return ch, round, stop
}

// TestPostedWriteAllocs: on a warm board a round of posted writes - a
// flag store and a word copy, each to another core's SRAM and to DRAM -
// allocates nothing. Each write is a recycled fabric record whose land
// handler was bound when the record was made.
func TestPostedWriteAllocs(t *testing.T) {
	ch, round, stop := postedRounds(t)
	defer stop()
	allocs := testing.AllocsPerRun(20, round)
	if allocs != 0 {
		t.Errorf("one posted-write round allocates %v times, budget 0", allocs)
	}
	if got := ch.Core(9).Local().Load32(0x200 + 4*15); got != 16 {
		t.Fatalf("copied word 15 = %d, want 16", got)
	}
	if got := ch.DRAM().Load32(0x100); got != 2 {
		t.Fatalf("DRAM flag = %d, want 2", got)
	}
}

// TestBlockWriteDRAMAllocs: on a warm board a §V-B block write - a
// 2 KB block carried by the eLink into DRAM - allocates nothing: the
// block is staged in a reused per-core buffer and lands through a
// completion handler bound once per core.
func TestBlockWriteDRAMAllocs(t *testing.T) {
	ch, round, stop := kernelRounds(t, func(c *Core) { c.BlockWriteDRAM(0x8000, 0, 2048) })
	defer stop()
	allocs := testing.AllocsPerRun(20, round)
	if allocs != 0 {
		t.Errorf("one block-write round allocates %v times, budget 0", allocs)
	}
	if got := ch.DRAM().Load32(0x8000 + 4*15); got != 16 {
		t.Fatalf("DRAM word 15 = %d, want 16", got)
	}
}

// BenchmarkPostedWrites times one warm round of every posted-write kind:
// StoreGlobal32 and CopyWordsTo (16 words), each to another core's SRAM
// and to shared DRAM, simulated until all four have landed.
func BenchmarkPostedWrites(b *testing.B) {
	_, round, stop := postedRounds(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestPostedWritesLandIssueTimeBytes interleaves word copies and flag
// stores from one core to a near core, a core two chips away and shared
// DRAM on the 2x2 cluster. DRAM writes queue on the eLink while later
// mesh writes land, so posts land - and their records are recycled -
// out of issue order. The kernel overwrites its source after every
// issue; each destination must still hold the bytes from issue time,
// and the byte counters must be exactly what the writes move.
func TestPostedWritesLandIssueTimeBytes(t *testing.T) {
	eng := sim.NewEngine()
	ch := NewChipMap(eng, mem.NewBoardMap(2, 2, 4, 4))
	amap := ch.Map()
	near, far := amap.CoreIndex(0, 1), amap.CoreIndex(7, 7)
	if amap.ChipCrossings(0, far) != 2 {
		t.Fatalf("core %d is not two chips from core 0", far)
	}
	const (
		rounds = 36
		srcOff = mem.Addr(0x1000)
		dstOff = mem.Addr(0x2000)
		slot   = 64 // destination bytes per issue
	)
	word := func(i, w int) uint32 { return uint32(i)<<16 | uint32(w+1) }
	// Expected byte counters, tallied as the kernel issues.
	var srcBytes, nearBytes, farBytes, dramBytes uint64
	ch.Launch(0, "mixer", func(c *Core) {
		sram := c.Local()
		for i := 0; i < rounds; i++ {
			words := 1
			if i%2 == 0 {
				words = 1 + i%7
				for w := 0; w < words; w++ {
					sram.Store32(srcOff+mem.Addr(4*w), word(i, w))
				}
				srcBytes += uint64(8 * words) // the stores and the copy's read
			}
			off := dstOff + mem.Addr(slot*i)
			var dst mem.Addr
			switch i % 3 {
			case 0:
				dst, nearBytes = amap.GlobalOf(near, off), nearBytes+uint64(4*words)
			case 1:
				dst, farBytes = amap.GlobalOf(far, off), farBytes+uint64(4*words)
			default:
				dst, dramBytes = mem.DRAMBase+off, dramBytes+uint64(4*words)
			}
			if i%2 == 0 {
				c.CopyWordsTo(dst, srcOff, words)
			} else {
				c.StoreGlobal32(dst, word(i, 0))
			}
			for w := 0; w < 8; w++ {
				sram.Store32(srcOff+mem.Addr(4*w), 0xDEADBEEF)
			}
			srcBytes += 32
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fab := ch.Fabric()
	if got := fab.SRAMs[0].AccessedBytes(); got != srcBytes {
		t.Errorf("source SRAM accessed %d bytes, want %d", got, srcBytes)
	}
	if got := fab.SRAMs[near].AccessedBytes(); got != nearBytes {
		t.Errorf("near SRAM accessed %d bytes, want %d", got, nearBytes)
	}
	if got := fab.SRAMs[far].AccessedBytes(); got != farBytes {
		t.Errorf("far SRAM accessed %d bytes, want %d", got, farBytes)
	}
	if got := fab.DRAM.AccessedBytes(); got != dramBytes {
		t.Errorf("DRAM accessed %d bytes, want %d", got, dramBytes)
	}
	if got := fab.ELink.TotalServedBytes(); got != dramBytes {
		t.Errorf("eLink carried %d bytes, want %d", got, dramBytes)
	}
	if got := fab.ELink.ServedBytes(0); got != dramBytes {
		t.Errorf("eLink carried %d bytes for core 0, want %d", got, dramBytes)
	}
	for i := 0; i < rounds; i++ {
		words := 1
		if i%2 == 0 {
			words = 1 + i%7
		}
		off := dstOff + mem.Addr(slot*i)
		for w := 0; w < words; w++ {
			a := off + mem.Addr(4*w)
			var got uint32
			switch i % 3 {
			case 0:
				got = fab.SRAMs[near].Load32(a)
			case 1:
				got = fab.SRAMs[far].Load32(a)
			default:
				got = fab.DRAM.Load32(a)
			}
			if got != word(i, w) {
				t.Errorf("issue %d word %d = %#x, want %#x", i, w, got, word(i, w))
			}
		}
	}
}
