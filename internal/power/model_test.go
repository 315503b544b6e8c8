package power

import (
	"math"
	"strings"
	"testing"
)

// TestComputedHeadlineEfficiency reproduces the paper's §VIII headline
// from the computed model, not the assumed constant: the calibrated
// epiphany-iv-28nm preset must put the 64-core chip's full-load draw at
// the paper's "2 watts" and therefore its peak efficiency at ~38.4
// GFLOPS/W and its measured-style efficiency (the ~64 GFLOPS the
// paper's matmul sustains) at ~32 GFLOPS/W. Tolerance: 2% on every
// figure - the calibration note in presets.go shows the exact fit.
func TestComputedHeadlineEfficiency(t *testing.T) {
	m := &EpiphanyIV28nm
	const tol = 0.02
	within := func(got, want float64) bool { return math.Abs(got-want) <= tol*want }

	if w := m.PeakPowerW(64, m.Nominal); !within(w, 2.0) {
		t.Errorf("full-load chip draw %.4f W, want 2 W +-2%%", w)
	}
	if g := m.PeakGFLOPS(64, m.Nominal); g != 76.8 {
		t.Errorf("peak %.2f GFLOPS, want 76.8", g)
	}
	if eff := m.PeakEfficiency(64, m.Nominal); !within(eff, 38.4) {
		t.Errorf("computed peak efficiency %.2f GFLOPS/W, want 38.4 +-2%%", eff)
	}

	// Measured-style point: the chip sustaining 64 of its 76.8 peak
	// GFLOPS, every core active, operand traffic scaled with the flops.
	c := m.PeakCounters(64, 1e-3)
	scale := 64.0 / 76.8
	c.Flops = uint64(float64(c.Flops) * scale)
	c.SRAMBytes = uint64(float64(c.SRAMBytes) * scale)
	u := m.Energy(c, m.Nominal)
	if eff := 64.0 / u.AvgPowerW; !within(eff, 32) {
		t.Errorf("computed measured-style efficiency %.2f GFLOPS/W, want 32 +-2%%", eff)
	}
}

// TestDVFSScaling checks the analytic scaling laws: wall time ~ 1/f,
// dynamic energy ~ V^2 at fixed activity, leakage energy ~ V/f.
func TestDVFSScaling(t *testing.T) {
	m := &EpiphanyIV28nm
	c := m.PeakCounters(64, 1e-3)
	nom := m.Energy(c, m.Nominal)

	half := OperatingPoint{FreqMHz: 300, VoltageV: 1.0}
	u := m.Energy(c, half)
	if got, want := u.TimeS, 2*nom.TimeS; math.Abs(got-want) > 1e-12 {
		t.Errorf("halving f: wall time %v, want %v", got, want)
	}
	// Same voltage: every dynamic component is unchanged; leakage
	// doubles with the stretched wall time.
	if u.Breakdown.CoreActiveJ != nom.Breakdown.CoreActiveJ {
		t.Errorf("dynamic energy moved with frequency at fixed V")
	}
	if got, want := u.Breakdown.LeakageJ, 2*nom.Breakdown.LeakageJ; math.Abs(got-want) > 1e-15 {
		t.Errorf("leakage %v, want %v at half frequency", got, want)
	}

	lowV := OperatingPoint{FreqMHz: 600, VoltageV: 0.5}
	v := m.Energy(c, lowV)
	if got, want := v.Breakdown.CoreActiveJ, nom.Breakdown.CoreActiveJ/4; math.Abs(got-want) > 1e-15 {
		t.Errorf("dynamic energy %v at V/2, want quarter of %v", got, nom.Breakdown.CoreActiveJ)
	}
	if got, want := v.Breakdown.LeakageJ, nom.Breakdown.LeakageJ/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("leakage %v at V/2, want half of %v", got, nom.Breakdown.LeakageJ)
	}

	// EDP at nominal equals E*t by construction.
	if nom.EDPJs != nom.EnergyJ*nom.TimeS {
		t.Errorf("EDP %v != EnergyJ*TimeS %v", nom.EDPJs, nom.EnergyJ*nom.TimeS)
	}
}

// TestParsePoint covers the DVFS axis spelling, good and bad.
func TestParsePoint(t *testing.T) {
	good := map[string]OperatingPoint{
		"600MHz@1.0V":  {600, 1.0},
		"600@1.0":      {600, 1.0},
		"300mhz@0.8v":  {300, 0.8},
		" 450 @ 0.85 ": {450, 0.85},
	}
	for in, want := range good {
		got, err := ParsePoint(in)
		if err != nil || got != want {
			t.Errorf("ParsePoint(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "600", "@", "600@", "@1.0", "x@y", "600MHz@xV",
		"0@1.0", "600@0", "-600@1.0", "600@-1.0",
	} {
		if _, err := ParsePoint(bad); err == nil {
			t.Errorf("ParsePoint(%q) accepted", bad)
		}
	}
}

// TestModelPointAndLabels checks the canonical label round trip and the
// nominal aliases.
func TestModelPointAndLabels(t *testing.T) {
	m := &EpiphanyIV28nm
	for _, label := range []string{"", "nominal"} {
		op, err := m.Point(label)
		if err != nil || op != m.Nominal {
			t.Errorf("Point(%q) = %v, %v; want nominal %v", label, op, err, m.Nominal)
		}
	}
	for _, op := range m.Points {
		back, err := ParsePoint(op.String())
		if err != nil || back != op {
			t.Errorf("label %q does not round-trip: %v, %v", op.String(), back, err)
		}
	}
	if s := m.Nominal.String(); s != "600MHz@1.00V" {
		t.Errorf("canonical nominal label %q", s)
	}
}

// TestPresetRegistry checks the preset lookups and that every preset
// validates.
func TestPresetRegistry(t *testing.T) {
	names := Models()
	if len(names) < 2 {
		t.Fatalf("want >= 2 presets, have %v", names)
	}
	for _, name := range names {
		m, ok := ModelByName(name)
		if !ok || m.Name != name {
			t.Fatalf("preset %q does not resolve to itself", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := ResolveModel("no-such-model"); err == nil ||
		!strings.Contains(err.Error(), "unknown power model") {
		t.Errorf("ResolveModel of unknown name: %v", err)
	}
	// The 65nm part must be strictly less efficient than the 28nm part.
	if e3, e4 := EpiphanyIII65nm.PeakEfficiency(16, EpiphanyIII65nm.Nominal),
		EpiphanyIV28nm.PeakEfficiency(64, EpiphanyIV28nm.Nominal); e3 >= e4 {
		t.Errorf("65nm efficiency %.1f should trail 28nm %.1f", e3, e4)
	}
}

// TestPrintedPeakEfficiencies pins every static Table VII row's
// GFLOPS/Watt to the paper's printed values (the rows the simulator
// cannot compute; the Epiphany row's printed 38.4 is also what the
// computed model must land near, tested above).
func TestPrintedPeakEfficiencies(t *testing.T) {
	want := map[string]float64{
		"TI C6678 Multicore DSP":       16.0,
		"Tilera 64-core chip":          5.49,
		"Intel 80-core Terascale":      14.09,
		"Epiphany 64-core coprocessor": 38.4,
	}
	if len(Comparison) != len(want) {
		t.Fatalf("Table VII has %d systems, want %d", len(Comparison), len(want))
	}
	for _, s := range Comparison {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected system %q", s.Name)
			continue
		}
		if got := s.PeakEfficiency(); math.Abs(got-w) > 0.005*w {
			t.Errorf("%s: %.3f GFLOPS/W, paper prints %.2f", s.Name, got, w)
		}
	}
}

// TestComputedComparison checks the computed Epiphany row replaces the
// transcribed one, leads the table, and carries the model's peak
// figures.
func TestComputedComparison(t *testing.T) {
	rows := ComputedComparison(&EpiphanyIV28nm, 64)
	if len(rows) != len(Comparison) {
		t.Fatalf("%d rows, want %d", len(rows), len(Comparison))
	}
	last := rows[len(rows)-1]
	if !strings.Contains(last.Name, "computed") || !strings.Contains(last.Name, EpiphanyIV28nm.Name) {
		t.Fatalf("last row %q is not the computed Epiphany row", last.Name)
	}
	if last.MaxGFLOPS != 76.8 {
		t.Errorf("computed peak %.2f GFLOPS, want 76.8", last.MaxGFLOPS)
	}
	if math.Abs(last.ChipWatts-2.0) > 0.04 {
		t.Errorf("computed chip draw %.3f W, want ~2", last.ChipWatts)
	}
	for _, s := range rows[:len(rows)-1] {
		if s.PeakEfficiency() >= last.PeakEfficiency() {
			t.Errorf("%s (%.1f GFLOPS/W) should trail the computed Epiphany row (%.1f)",
				s.Name, s.PeakEfficiency(), last.PeakEfficiency())
		}
	}
	if last.Cores != 64 || last.ClockGHz != 0.6 {
		t.Errorf("computed row has %d cores at %.2f GHz, want 64 at 0.60", last.Cores, last.ClockGHz)
	}
	if got, want := last.PeakEfficiency(), EpiphanyIV28nm.PeakEfficiency(64, EpiphanyIV28nm.Nominal); got != want {
		t.Errorf("computed row at %.3f GFLOPS/W, the model computes %.3f", got, want)
	}
}

// TestValidate exercises the model validator's error paths.
func TestValidate(t *testing.T) {
	ok := EpiphanyIV28nm
	if err := ok.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := ok
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("unnamed model validated")
	}
	bad = ok
	bad.Nominal.VoltageV = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nominal voltage validated")
	}
	bad = ok
	bad.FPUPJPerFlop = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative coefficient validated")
	}
	bad = ok
	bad.LeakageWPerCore = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN coefficient validated")
	}
	bad = ok
	bad.Nominal.FreqMHz = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite nominal frequency validated")
	}
	bad = ok
	bad.Points = append([]OperatingPoint{{0, 1}}, ok.Points...)
	if err := bad.Validate(); err == nil {
		t.Error("zero-frequency ladder point validated")
	}
}
