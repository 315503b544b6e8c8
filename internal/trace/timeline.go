// Package trace records what a simulation did as a Perfetto timeline:
// where each core's time went (compute vs DMA waits vs flag spins), the
// DMA transfer legs, and chip-to-chip eLink crossings - the "where did
// the time go" view of kernels running on the simulated chip.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"epiphany/internal/ecore"
	"epiphany/internal/noc"
	"epiphany/internal/sim"
)

// Timeline records a run's activity as Chrome trace-event JSON, the
// format ui.perfetto.dev (and chrome://tracing) open directly: per-core
// activity segments, DMA transfer legs and chip-to-chip eLink
// crossings. Attach before running a workload, Export after.
//
// Recording is purely observational: the hooks fire on paths whose
// virtual times are already fixed, so a run with a Timeline attached
// computes bit-identical Metrics to one without. A Timeline records one
// run, whose engine fires its hooks one at a time; it is not safe for
// concurrent use. The written JSON is byte-deterministic for a
// deterministic run: events are fully sorted before encoding.
type Timeline struct {
	events []tev
	chip   *ecore.Chip
}

// tev is one recorded span. bytes < 0 means no payload argument.
type tev struct {
	name     string
	ts, dur  sim.Time
	pid, tid int
	bytes    int
}

// Track ids: one Perfetto "process" per hardware layer.
const (
	pidCores = 1 + iota
	pidDMA
	pidNoC
)

// NewTimeline returns an empty recorder.
func NewTimeline() *Timeline { return &Timeline{} }

// Attach installs the timeline's hooks on the chip's fabric and mesh.
// Detach when the run completes (board recycling also clears
// the hooks, but a paired Detach keeps a pooled board from recording a
// stranger's run).
func (tl *Timeline) Attach(ch *ecore.Chip) {
	tl.chip = ch
	ch.Fabric().Rec = tl
	ch.Fabric().Mesh.SetRecorder(tl)
}

// Detach removes the hooks installed by Attach.
func (tl *Timeline) Detach(ch *ecore.Chip) {
	ch.Fabric().Rec = nil
	ch.Fabric().Mesh.SetRecorder(nil)
}

func (tl *Timeline) add(ev tev) { tl.events = append(tl.events, ev) }

// CoreSpan implements noc.Recorder.
func (tl *Timeline) CoreSpan(core int, k noc.ActivityKind, start, end sim.Time) {
	tl.add(tev{name: k.String(), ts: start, dur: end - start, pid: pidCores, tid: core, bytes: -1})
}

// DMATransfer implements noc.Recorder.
func (tl *Timeline) DMATransfer(core int, kind string, start, end sim.Time, bytes int) {
	tl.add(tev{name: kind, ts: start, dur: end - start, pid: pidDMA, tid: core, bytes: bytes})
}

// ELinkCross implements noc.Recorder.
func (tl *Timeline) ELinkCross(slot int, start, end sim.Time, bytes int) {
	tl.add(tev{name: "c2c", ts: start, dur: end - start, pid: pidNoC, tid: slot, bytes: bytes})
}

// jsonEvent is the trace-event wire format: "X" complete events with
// microsecond timestamps, plus "M" metadata naming the tracks.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func metaEvent(kind string, pid, tid int, name string) jsonEvent {
	return jsonEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// micros converts a virtual time to the trace format's microseconds.
func micros(t sim.Time) float64 { return t.Nanoseconds() / 1000 }

// Export encodes the recorded events as a Chrome trace-event /
// Perfetto JSON document.
func (tl *Timeline) Export(w io.Writer) error {
	// Full-key sort: a deterministic run records a deterministic event
	// multiset, and the total order makes the bytes a function of it
	// alone.
	sort.Slice(tl.events, func(i, j int) bool {
		a, b := tl.events[i], tl.events[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.dur != b.dur {
			return a.dur < b.dur
		}
		return a.bytes < b.bytes
	})

	out := make([]jsonEvent, 0, len(tl.events)+16)
	out = append(out,
		metaEvent("process_name", pidCores, 0, "cores"),
		metaEvent("process_name", pidDMA, 0, "dma"),
		metaEvent("process_name", pidNoC, 0, "c2c links"),
	)
	if tl.chip != nil {
		m := tl.chip.Map()
		for i := 0; i < tl.chip.NumCores(); i++ {
			r, c := m.CoreCoords(i)
			label := fmt.Sprintf("core %d,%d", r, c)
			out = append(out,
				metaEvent("thread_name", pidCores, i, label),
				metaEvent("thread_name", pidDMA, i, "dma "+label[5:]))
		}
	}
	for _, ev := range tl.events {
		je := jsonEvent{
			Name: ev.name, Ph: "X",
			Ts: micros(ev.ts), Dur: micros(ev.dur),
			Pid: ev.pid, Tid: ev.tid,
		}
		if ev.bytes >= 0 {
			je.Args = map[string]any{"bytes": ev.bytes}
		}
		out = append(out, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		DisplayTimeUnit string      `json:"displayTimeUnit"`
		TraceEvents     []jsonEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ns", TraceEvents: out})
}

// Events returns how many spans have been recorded (diagnostics).
func (tl *Timeline) Events() int { return len(tl.events) }
