// Package noc models the Epiphany eMesh network-on-chip and the eLink
// interface to off-chip shared memory.
//
// The model is transaction-level, not flit-level: transfers book occupancy
// on per-hop link resources (capturing serialization and queueing) and pay
// a per-hop head latency. The constants below are calibrated so that the
// micro-benchmarks of the paper's Section V reproduce: Table I's distance
// experiment, Figure 2/3's DMA-vs-direct-write crossover, and the eLink's
// 150 MB/s effective write throughput with its unfair arbitration
// (Tables II and III).
package noc

import "epiphany/internal/sim"

// Calibrated network constants. Sources: paper §V plus the Epiphany
// architecture reference. One core cycle = sim.Cycle = 5 units of 1/3 ns.
const (
	// HopLatency is the head latency added per router hop on the on-chip
	// networks: 1.4 cycles. Fitted to Table I (11.12 ns/word at Manhattan
	// distance 1 rising to ~12.6 ns/word at distance 14 for 20-word
	// messages: (20*33 + hops*7)/60 ns reproduces the table).
	HopLatency sim.Time = 7
	// LinkBytePeriod is the on-chip write-network serialization time per
	// byte: the mesh moves 8 bytes/cycle/link, i.e. 5 units per 8 bytes.
	// Expressed as a rational via LinkBytesPerCycle to stay exact.
	LinkBytesPerCycle = 8
	// DirectWriteWordPeriod is the sustained cost of one 32-bit remote
	// store issued by the benchmark's load/store copy loop: 6.6 cycles =
	// 33 units, fitted to Table I's 11.12 ns/word. (A bare store issues in
	// 1 cycle; the measured loop also loads the source word, advances
	// pointers and suffers pipeline effects, which is what this constant
	// captures - the paper's own code is an unrolled sequence of
	// "*dst_i = *src_i" statements.)
	DirectWriteWordPeriod sim.Time = 33
	// DMABeatPeriod is the sustained DMA service time per 8-byte beat:
	// 2.4 cycles = 12 units, i.e. 2.0 GB/s, matching Figure 2's large-
	// message plateau ("around 2GB/s"; the 2.4 GB/s single-word and
	// 4.8 GB/s doubleword theoretical rates are not achieved in practice).
	DMABeatPeriod sim.Time = 12
	// DMAWordPeriod is the service time per 4-byte beat when a descriptor
	// uses word (not doubleword) mode, as the stencil's column transfers do.
	DMAWordPeriod sim.Time = 12
	// DMADescriptorBuildCost is the one-time CPU cost of e_dma_set_desc:
	// building the descriptor in memory. Together with DMAStartCost it is
	// fitted to Figure 3's ~500-byte DMA/direct-write latency crossover.
	DMADescriptorBuildCost sim.Time = 575 * sim.Cycle
	// DMAStartCost is the per-transfer cost of e_dma_start plus the
	// e_dma_wait completion poll, paid even when a descriptor is reused
	// (as the bandwidth benchmark of Figure 2 does).
	DMAStartCost sim.Time = 100 * sim.Cycle
	// ReadWordRoundTrip is the extra cost of one remote 32-bit read: the
	// read-request network is not pipelined from the CPU's point of view,
	// so each load pays a full round trip. The paper avoids remote reads;
	// this constant only matters for completeness tests.
	ReadWordRoundTrip sim.Time = 16 * sim.Cycle
	// ELinkBytePeriod is the effective per-byte service time of the
	// off-chip write path: 150 MB/s = one byte per 20 units (§V-B: "the
	// maximum write throughput to external shared memory achieved was
	// 150MB/sec, exactly one quarter of the theoretical maximum of the
	// 600MB/sec eLink").
	ELinkBytePeriod sim.Time = 20
	// HostBytePeriod is the effective host<->device staging rate through
	// the eLink/AXI path, matched to the paper's off-chip matmul analysis
	// (512 KB block in ~3.4 ms => 150 MB/s).
	HostBytePeriod sim.Time = 20

	// Chip-to-chip eLink constants, for multi-chip boards whose eMeshes
	// are glued together through the off-chip links (the Epiphany
	// architecture's intended scaling path; each chip edge exposes one
	// 8-bit 600 MHz eLink). A mesh hop that crosses a chip boundary
	// leaves the 8-byte-per-cycle on-chip fabric for this far narrower
	// serial link, and every row (or column) of the chip edge shares the
	// one link through its merge arbiter.

	// C2CBytePeriod is the chip-to-chip eLink serialization time per
	// byte: the raw 600 MB/s link rate, one byte per core cycle (the
	// write direction of a dedicated point-to-point link does not suffer
	// the 4x DRAM-path derating of ELinkBytePeriod). 8x slower than an
	// on-chip mesh link.
	C2CBytePeriod sim.Time = sim.Cycle
	// C2CHopLatency is the head latency of one chip-boundary crossing:
	// off-chip drivers, resynchronization into the destination chip's
	// clock domain and the boundary router, modelled at 12 core cycles.
	C2CHopLatency sim.Time = 12 * sim.Cycle
)

// LinkSerialization returns the on-chip link occupancy for n bytes.
func LinkSerialization(n int) sim.Time {
	beats := (n + LinkBytesPerCycle - 1) / LinkBytesPerCycle
	return sim.Cycles(uint64(beats))
}

// DMASerialization returns the DMA engine pacing time for n bytes moved
// with the given beat size (4 or 8 bytes).
func DMASerialization(n, beatBytes int) sim.Time {
	if beatBytes != 4 && beatBytes != 8 {
		panic("noc: DMA beat must be 4 or 8 bytes")
	}
	beats := (n + beatBytes - 1) / beatBytes
	per := DMABeatPeriod
	if beatBytes == 4 {
		per = DMAWordPeriod
	}
	return sim.Time(beats) * per
}
