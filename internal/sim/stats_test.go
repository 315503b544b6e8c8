package sim

import "testing"

// TestStatsSequentialCounts: the always-on counters - events
// dispatched, heap peak.
func TestStatsSequentialCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(10*(i+1)), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st != (EngineStats{Events: 5, HeapPeak: 5}) {
		t.Errorf("stats %+v, want 5 events and heap peak 5 (all scheduled up front)", st)
	}
}

// TestStatsResetClears: a recycled engine starts its counters at zero.
func TestStatsResetClears(t *testing.T) {
	e := NewEngine()
	e.At(5, func() { e.At(10, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Events != 2 {
		t.Fatalf("%d events before reset, want 2", st.Events)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st != (EngineStats{}) {
		t.Errorf("reset kept counters: %+v", st)
	}
}

// TestStatsStringReport: the rendered report is the one header line
// the bench flag prints.
func TestStatsStringReport(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.At(10, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().String(), "engine: 2 events, heap peak 2\n"; got != want {
		t.Errorf("report %q, want %q", got, want)
	}
}
