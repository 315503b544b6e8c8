package main

import (
	"runtime"
	"time"

	"epiphany"
	"epiphany/internal/dma"
	"epiphany/internal/mem"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// probeReps is how many times each probe runs; the ledger reports the
// median.
const probeReps = 5

// probe times fn, which performs n operations, probeReps times under a
// span and returns the median nanoseconds per operation.
func probe(tr *tracer, parent int, name string, n int, fn func()) float64 {
	per := make([]float64, probeReps)
	for i := range per {
		sp := tr.begin(tidProbe, "probe", name, parent)
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0)) / float64(n)
		tr.end(sp)
	}
	return median(per)
}

// runProbes measures each layer's basic operation on its own, outside
// any workload, and returns the probe metrics.
func runProbes(tr *tracer) map[string]metric {
	parent := tr.begin(tidProbe, "probe", "probes", 0)
	defer tr.end(parent)
	ms := map[string]metric{}
	ns := func(name string, v float64) { ms[name] = metric{v, "ns"} }

	// sim: a Proc.Wait round trip, a callback push and pop, and a
	// cross-shard Send between two shards of a sequential engine.
	const resumes = 20000
	ns("sim.resume_ns", probe(tr, parent, "sim.resume", resumes, func() {
		eng := sim.NewEngine()
		eng.Spawn("probe", func(p *sim.Proc) {
			for range resumes {
				p.Wait(1)
			}
		})
		must(eng.Run())
	}))
	const events = 200000
	ns("sim.event_ns", probe(tr, parent, "sim.event", events, func() {
		eng := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			if n++; n < events {
				eng.After(1, tick)
			}
		}
		eng.At(0, tick)
		must(eng.Run())
	}))
	const sends = 200000
	ns("sim.cross_send_ns", probe(tr, parent, "sim.cross_send", sends, func() {
		eng := sim.NewEngine()
		eng.AddShards(1)
		a, b := eng.Shard(0), eng.Shard(1)
		n := 0
		var ping, pong func()
		ping = func() {
			if n++; n < sends {
				a.Send(b, a.Now()+1, pong)
			}
		}
		pong = func() {
			if n++; n < sends {
				b.Send(a, b.Now()+1, ping)
			}
		}
		a.At(0, ping)
		must(eng.Run())
	}))

	// noc: Mesh.Deliver on one chip, and across chip boundaries of the
	// 1024-core board's address map.
	const delivers = 500000
	chip := noc.NewMesh(sim.NewEngine(), mem.NewMap(8, 8))
	var t sim.Time
	ns("noc.deliver_ns", probe(tr, parent, "noc.deliver", delivers, func() {
		for i := range delivers {
			t = chip.Deliver(t, i%64, (i*7+13)%64, 64)
		}
	}))
	board := noc.NewMesh(sim.NewEngine(), mem.NewBoardMap(4, 4, 8, 8))
	amap := board.Map()
	ns("noc.deliver_c2c_ns", probe(tr, parent, "noc.deliver_c2c", delivers, func() {
		for i := range delivers {
			src := amap.CoreIndex(i%8, (i/8)%8)            // on chip (0,0)
			dst := amap.CoreIndex(8+(i*7)%24, 8+(i*13)%24) // on another chip
			t = board.Deliver(t, src, dst, 64)
		}
	}))

	// dma: chained 2D legs core-to-core, and DRAM-sourced legs.
	const legs, rounds = 32, 50
	fab := newProbeFabric()
	eng := dma.NewEngine(fab, 0)
	coreChain := chain(legs, func(i int) *dma.Desc {
		return &dma.Desc{
			Beat: 8, InnerCount: 4, OuterCount: 8,
			SrcInnerStride: 8, DstInnerStride: 8, SrcOuterStride: 64, DstOuterStride: 64,
			Src: mem.Addr(0x2000 + 0x200*i), Dst: fab.Map.GlobalOf(1, mem.Addr(0x2000+0x200*i)),
		}
	})
	ns("dma.chain_leg_ns", probe(tr, parent, "dma.chain_leg", legs*rounds, func() {
		runDMA(fab, eng, coreChain, rounds)
	}))
	dramChain := chain(legs, func(i int) *dma.Desc {
		return dma.Desc1D(mem.DRAMBase+mem.Addr(0x400*i), mem.Addr(0x4000+0x100*i), 256, 8)
	})
	ns("dma.dram_leg_ns", probe(tr, parent, "dma.dram_leg", legs*rounds, func() {
		runDMA(fab, eng, dramChain, rounds)
	}))

	// mem: SRAM word access.
	const words = 4 << 20
	sram := mem.NewSRAM()
	var sink uint32
	ns("mem.load32_ns", probe(tr, parent, "mem.load32", words, func() {
		for i := range words {
			sink += sram.Load32(mem.Addr(i*4) & 0x7ffc)
		}
	}))
	ns("mem.store32_ns", probe(tr, parent, "mem.store32", words, func() {
		for i := range words {
			sram.Store32(mem.Addr(i*4)&0x7ffc, uint32(i))
		}
	}))
	runtime.KeepAlive(sink)

	// system: board construction (time and bytes) and Reset.
	for _, tp := range probeTopos {
		topo, err := epiphany.ParseTopology(tp.spec)
		must(err)
		var sys *epiphany.System
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ms["system.construct_ms."+tp.label] = metric{probe(tr, parent, "system.construct "+tp.label, 1, func() {
			sys = system.NewTopology(topo)
		}) / 1e6, "ms"}
		runtime.ReadMemStats(&after)
		ms["system.construct_mb."+tp.label] = metric{float64(after.TotalAlloc-before.TotalAlloc) / probeReps / 1e6, "MB"}
		ms["system.reset_ms."+tp.label] = metric{probe(tr, parent, "system.reset "+tp.label, 1, func() {
			must(sys.Reset())
		}) / 1e6, "ms"}
	}
	return ms
}

// probeTopos are the boards the system probes build, with the label
// their metric names carry.
var probeTopos = []struct{ spec, label string }{
	{"e16", "e16"}, {"e64", "e64"}, {"cluster-2x2", "cluster-2x2"}, {boardSpec, "board1024"},
}

// newProbeFabric builds a standalone single-chip DMA fabric.
func newProbeFabric() *dma.Fabric {
	eng := sim.NewEngine()
	amap := mem.NewMap(8, 8)
	return &dma.Fabric{
		Eng:       eng,
		Map:       amap,
		Mesh:      noc.NewMesh(eng, amap),
		ELink:     noc.NewELink(eng, 8, 8),
		ELinkRead: sim.NewResource("elink-read"),
		SRAMs:     mem.NewSRAMs(amap.NumCores()),
		DRAM:      mem.NewDRAM(),
	}
}

// chain links n descriptors built by desc into one chain.
func chain(n int, desc func(i int) *dma.Desc) *dma.Desc {
	head := desc(0)
	d := head
	for i := 1; i < n; i++ {
		d.Chain = desc(i)
		d = d.Chain
	}
	return head
}

// runDMA starts the chain rounds times from one proc, waiting for each.
func runDMA(fab *dma.Fabric, eng *dma.Engine, head *dma.Desc, rounds int) {
	fab.Eng.Spawn("probe", func(p *sim.Proc) {
		for range rounds {
			eng.Start(dma.DMA0, head)
			eng.Wait(p, dma.DMA0)
		}
	})
	must(fab.Eng.Run())
}

// must panics on an error a probe cannot produce unless the simulator
// is broken; the traced run reports it as a failure.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
