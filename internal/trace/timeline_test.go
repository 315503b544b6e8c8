package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"epiphany/internal/dma"
	"epiphany/internal/ecore"
	"epiphany/internal/sim"
	"epiphany/internal/system"
)

// timelineEnvelope mirrors the exported document for assertions.
type timelineEnvelope struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func exportDoc(t *testing.T, tl *Timeline) timelineEnvelope {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc timelineEnvelope
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported timeline does not parse: %v", err)
	}
	return doc
}

// TestTimelineRecordsAndExports drives the three core-activity kinds
// and a DMA transfer on a bare chip and checks the exported document:
// track metadata, span kinds, payload args, and the sorted encoding.
func TestTimelineRecordsAndExports(t *testing.T) {
	eng := sim.NewEngine()
	ch := ecore.NewChip(eng, 8, 8)
	tl := NewTimeline()
	tl.Attach(ch)
	ch.Launch(0, "c0", func(c *ecore.Core) {
		c.Compute(1000, 2000)
		c.StoreGlobal32(c.GlobalOn(0, 3, 0x700), 1)
	})
	ch.Launch(1, "c1", func(c *ecore.Core) {
		d := c.DMASetDesc(dma.Desc1D(0, c.GlobalOn(0, 2, 0), 4096, 8))
		c.DMAStart(dma.DMA0, d)
		c.DMAWait(dma.DMA0)
	})
	ch.Launch(3, "c3", func(c *ecore.Core) {
		c.WaitLocal32GE(0x700, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tl.Events() == 0 {
		t.Fatal("no spans recorded")
	}
	doc := exportDoc(t, tl)
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}

	procNames := map[string]bool{}
	threadNames := map[string]bool{}
	spans := map[string]int{}
	lastTs := -1.0
	var meshBytes float64
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			if ev.Name == "process_name" {
				procNames[name] = true
			} else {
				threadNames[name] = true
			}
		case "X":
			spans[ev.Name]++
			if ev.Ts < lastTs {
				t.Errorf("spans not sorted: %q at ts=%v after ts=%v", ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Name == "mesh" {
				meshBytes, _ = ev.Args["bytes"].(float64)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"cores", "dma", "c2c links"} {
		if !procNames[want] {
			t.Errorf("missing process_name %q (have %v)", want, procNames)
		}
	}
	for _, want := range []string{"core 0,0", "dma 0,0", "core 7,7"} {
		if !threadNames[want] {
			t.Errorf("missing thread_name %q", want)
		}
	}
	for _, want := range []string{"compute", "dma-wait", "flag-spin", "mesh"} {
		if spans[want] == 0 {
			t.Errorf("no %q spans (have %v)", want, spans)
		}
	}
	if meshBytes != 4096 {
		t.Errorf("mesh span bytes arg = %v, want 4096", meshBytes)
	}
	// A single-chip run crosses no chip boundary: no c2c spans.
	if spans["c2c"] != 0 {
		t.Errorf("single-chip run recorded c2c spans: %v", spans)
	}
}

// TestTimelineDetachStopsRecording: after Detach the hooks are gone, so
// a second run adds nothing.
func TestTimelineDetachStopsRecording(t *testing.T) {
	eng := sim.NewEngine()
	ch := ecore.NewChip(eng, 4, 4)
	tl := NewTimeline()
	tl.Attach(ch)
	ch.Launch(0, "c0", func(c *ecore.Core) { c.Compute(100, 10) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	n := tl.Events()
	if n == 0 {
		t.Fatal("no spans recorded while attached")
	}
	tl.Detach(ch)
	ch.Launch(1, "c1", func(c *ecore.Core) { c.Compute(100, 10) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tl.Events(); got != n {
		t.Errorf("detached timeline kept recording: %d -> %d spans", n, got)
	}
}

// TestClusterCrossingSpans exercises the board-level view on the
// 4-chip cluster: a DMA from chip 0 into chip 1 must show up as c2c
// spans on an attached Timeline, carrying every byte it moved.
func TestClusterCrossingSpans(t *testing.T) {
	s := system.NewTopology(system.Cluster2x2)
	ch := s.Chip()
	tl := NewTimeline()
	tl.Attach(ch)
	defer tl.Detach(ch)

	// Core (0,0) on chip 0 streams into core (0,4) - the first column of
	// chip 1 - so the route crosses the vertical chip boundary eastbound.
	ch.Launch(0, "xchip", func(c *ecore.Core) {
		d := c.DMASetDesc(dma.Desc1D(0, c.GlobalOn(0, 4, 0x4000), 2048, 8))
		for i := 0; i < 20; i++ {
			c.DMAStart(dma.DMA0, d)
			c.DMAWait(dma.DMA0)
		}
	})
	if err := s.Engine().Run(); err != nil {
		t.Fatal(err)
	}

	doc := exportDoc(t, tl)
	var c2c int
	var c2cBytes float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "c2c" {
			c2c++
			if b, _ := ev.Args["bytes"].(float64); b > 0 {
				c2cBytes += b
			}
			if ev.Pid != pidNoC {
				t.Errorf("c2c span on pid %d, want %d", ev.Pid, pidNoC)
			}
		}
	}
	if c2c == 0 {
		t.Fatal("cross-chip DMA recorded no c2c spans")
	}
	if want := float64(20 * 2048); c2cBytes != want {
		t.Errorf("c2c spans carry %v bytes, want %v", c2cBytes, want)
	}
}
