package noc

import "epiphany/internal/sim"

// ActivityKind classifies what a core spent a span of virtual time on,
// for timeline recording.
type ActivityKind uint8

const (
	// ActCompute is a core executing its modeled compute kernel.
	ActCompute ActivityKind = iota
	// ActDMAWait is a core blocked on a DMA channel completion.
	ActDMAWait
	// ActFlagSpin is a core polling a local flag word.
	ActFlagSpin
)

// String returns the timeline track label for the activity.
func (k ActivityKind) String() string {
	switch k {
	case ActCompute:
		return "compute"
	case ActDMAWait:
		return "dma-wait"
	case ActFlagSpin:
		return "flag-spin"
	}
	return "activity"
}

// Recorder observes the fabric for timeline export. A recorder is
// attached per run (dma.Fabric.Rec, Mesh.SetRecorder) and every hook
// sits behind a nil check, so the unmetered hot path costs one
// predictable branch. Spans carry virtual times in engine units.
//
// The engine executes one event at a time, so the hooks of one run
// never fire concurrently.
type Recorder interface {
	// CoreSpan records one core's activity over [start, end).
	CoreSpan(core int, k ActivityKind, start, end sim.Time)
	// DMATransfer records a DMA leg ("mesh", "mesh-x", "dram-read",
	// "dram-write") issued for core over [start, end).
	DMATransfer(core int, kind string, start, end sim.Time, bytes int)
	// ELinkCross records a message crossing chip-to-chip eLink slot over
	// [start, end): from the head's arrival at the boundary router to
	// the tail's arrival on the far chip.
	ELinkCross(slot int, start, end sim.Time, bytes int)
}
