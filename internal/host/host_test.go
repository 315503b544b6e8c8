package host

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"epiphany/internal/ecore"
	"epiphany/internal/mem"
	"epiphany/internal/sim"
)

func newHost() (*sim.Engine, *Host) {
	eng := sim.NewEngine()
	return eng, New(ecore.NewChip(eng, 8, 8))
}

// run spawns the host program fn and drives the simulation to
// completion.
func run(h *Host, fn func(hp *Proc)) error {
	h.Spawn("host", fn)
	return h.Chip().Engine().Run()
}

func TestWriteReadCoreRoundTrip(t *testing.T) {
	_, h := newHost()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var got []byte
	err := run(h, func(hp *Proc) {
		hp.WriteCore(5, 0x1000, data)
		got = hp.ReadCore(5, 0x1000, len(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v != %v", got, data)
	}
}

func TestWriteCoreTiming(t *testing.T) {
	_, h := newHost()
	var end sim.Time
	data := make([]byte, 1500)
	err := run(h, func(hp *Proc) {
		hp.WriteCore(0, 0, data)
		end = hp.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(1500) * DownBytePeriod; end != want {
		t.Fatalf("write took %v, want %v (150 MB/s e_write)", end, want)
	}
}

func TestHostWritesSerializeOnDownLink(t *testing.T) {
	// Two sequential writes to different cores share the link.
	_, h := newHost()
	var end sim.Time
	err := run(h, func(hp *Proc) {
		hp.WriteCore(0, 0, make([]byte, 1000))
		hp.WriteCore(1, 0, make([]byte, 1000))
		end = hp.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(2000) * DownBytePeriod; end != want {
		t.Fatalf("two writes took %v, want %v", end, want)
	}
}

func TestFloat32Marshalling(t *testing.T) {
	_, h := newHost()
	vals := []float32{0, 1.5, -2.25, 3e7, -0.0001}
	var got []float32
	err := run(h, func(hp *Proc) {
		hp.WriteCoreF32(3, 0x2000, vals)
		got = make([]float32, len(vals))
		hp.ReadCoreF32(3, 0x2000, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
	// The device must see the same bits (little-endian float32).
	if h.Chip().Fabric().SRAMs[3].LoadF32(0x2000+4) != 1.5 {
		t.Fatal("device-side float mismatch")
	}
}

func TestDRAMStagingFasterThanELink(t *testing.T) {
	_, h := newHost()
	var dramT, coreT sim.Time
	err := run(h, func(hp *Proc) {
		t0 := hp.Now()
		hp.WriteDRAM(0, make([]byte, 4096))
		dramT = hp.Now() - t0
		t0 = hp.Now()
		hp.WriteCore(0, 0, make([]byte, 4096))
		coreT = hp.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if dramT >= coreT {
		t.Fatalf("host DRAM staging (%v) should beat eLink core writes (%v)", dramT, coreT)
	}
}

func TestDRAMF32RoundTrip(t *testing.T) {
	_, h := newHost()
	vals := []float32{9, 8, 7}
	var got []float32
	err := run(h, func(hp *Proc) {
		hp.WriteDRAMF32(0x100, vals)
		got = hp.ReadDRAMF32(0x100, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestLoadImageCost(t *testing.T) {
	_, h := newHost()
	var end sim.Time
	err := run(h, func(hp *Proc) {
		hp.LoadImage(4, 8192)
		end = hp.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * (sim.Time(8192)*DownBytePeriod + LoadImageOverhead)
	if end != want {
		t.Fatalf("image load took %v, want %v", end, want)
	}
}

func TestJoinWaitsForKernels(t *testing.T) {
	_, h := newHost()
	var end sim.Time
	err := run(h, func(hp *Proc) {
		p := hp.Chip().Launch(0, "worker", func(c *ecore.Core) {
			c.Idle(sim.Millisecond)
		})
		hp.Join([]*sim.Proc{p})
		end = hp.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end < sim.Millisecond {
		t.Fatalf("join returned at %v, before the kernel finished", end)
	}
}

func TestWriteCoreNotifiesPollers(t *testing.T) {
	_, h := newHost()
	var seen sim.Time
	h.Chip().Launch(0, "poller", func(c *ecore.Core) {
		c.WaitLocal32GE(0x600, 1)
		seen = c.Now()
	})
	err := run(h, func(hp *Proc) {
		hp.Sim().Wait(100 * sim.Cycle)
		buf := []byte{1, 0, 0, 0}
		hp.WriteCore(0, 0x600, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("poller never woke")
	}
	_ = mem.Addr(0)
}

// TestF32StagingAllocatesOnlyResults: the float staging calls encode
// and decode in place - the writes and the core read into a caller's
// buffer allocate nothing, the DRAM read only the slice it returns.
func TestF32StagingAllocatesOnlyResults(t *testing.T) {
	vals := make([]float32, 256)
	_, h := newHost()
	var allocs [4]float64
	err := run(h, func(hp *Proc) {
		allocs[0] = testing.AllocsPerRun(20, func() { hp.WriteDRAMF32(0x100, vals) })
		allocs[1] = testing.AllocsPerRun(20, func() { hp.WriteCoreF32(3, 0x2000, vals) })
		allocs[2] = testing.AllocsPerRun(20, func() { _ = hp.ReadDRAMF32(0x100, len(vals)) })
		dst := make([]float32, len(vals))
		allocs[3] = testing.AllocsPerRun(20, func() { hp.ReadCoreF32(3, 0x2000, dst) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != [4]float64{0, 0, 1, 0} {
		t.Fatalf("allocs per call WriteDRAMF32/WriteCoreF32/ReadDRAMF32/ReadCoreF32 = %v, want [0 0 1 0]", allocs)
	}
}

// TestF32StagingMatchesBytePath: the float staging calls leave the same
// memory contents, virtual time and SRAM/DRAM AccessedBytes as staging
// the values' little-endian bytes through WriteDRAM/WriteCore and
// reading them back through ReadDRAM/ReadCore.
func TestF32StagingMatchesBytePath(t *testing.T) {
	vals := make([]float32, 300)
	for i := range vals {
		vals[i] = float32(i)*0.37 - 11
	}
	type outcome struct {
		end        sim.Time
		sram, dram uint64
		fromDRAM   []float32
		fromCore   []float32
	}
	transfer := func(f32 bool) outcome {
		_, h := newHost()
		var o outcome
		err := run(h, func(hp *Proc) {
			if f32 {
				hp.WriteDRAMF32(0x1002, vals)
				hp.WriteCoreF32(6, 0x3004, vals)
				o.fromDRAM = hp.ReadDRAMF32(0x1002, len(vals))
				o.fromCore = make([]float32, len(vals))
				hp.ReadCoreF32(6, 0x3004, o.fromCore)
			} else {
				enc := make([]byte, 4*len(vals))
				for i, v := range vals {
					binary.LittleEndian.PutUint32(enc[4*i:], math.Float32bits(v))
				}
				hp.WriteDRAM(0x1002, enc)
				hp.WriteCore(6, 0x3004, enc)
				o.fromDRAM = decodeF32s(hp.ReadDRAM(0x1002, len(enc)))
				o.fromCore = decodeF32s(hp.ReadCore(6, 0x3004, len(enc)))
			}
			o.end = hp.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		fab := h.Chip().Fabric()
		o.sram, o.dram = fab.SRAMs[6].AccessedBytes(), fab.DRAM.AccessedBytes()
		return o
	}
	got, want := transfer(true), transfer(false)
	if got.end != want.end || got.sram != want.sram || got.dram != want.dram {
		t.Fatalf("float path: t=%v SRAM %d B DRAM %d B; byte path: t=%v SRAM %d B DRAM %d B",
			got.end, got.sram, got.dram, want.end, want.sram, want.dram)
	}
	if !slices.Equal(got.fromDRAM, vals) || !slices.Equal(want.fromDRAM, vals) ||
		!slices.Equal(got.fromCore, vals) || !slices.Equal(want.fromCore, vals) {
		t.Fatal("round trip changed the values")
	}
}

func decodeF32s(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
