package main

import (
	"context"
	"strings"
	"testing"

	"epiphany"
)

// panicker is a workload whose kernel on core (0,0) panics mid-run.
type panicker struct{}

func (panicker) Name() string    { return "sweep-test-panicker" }
func (panicker) Validate() error { return nil }
func (panicker) Run(ctx context.Context, sys *epiphany.System) (epiphany.Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	w, err := sys.NewWorkgroup(0, 0, 2, 2)
	if err != nil {
		return nil, err
	}
	sys.Host().Spawn("host", func(hp *epiphany.HostProc) {
		for _, p := range w.Launch("k", func(c *epiphany.Core, gr, gc int) {
			c.Idle(epiphany.Time(100 * (1 + gr*2 + gc)))
			if gr == 0 && gc == 0 {
				panic("kernel fault")
			}
		}) {
			hp.Sim().Join(p)
		}
	})
	return nil, sys.Engine().Run()
}

// TestPanickingCellErrorIsOneLine: a cell whose kernel panics keeps
// the table's shape in every format - its error column carries the one
// line sim: proc "NAME" panicked at t=T: VALUE, with no goroutine dump.
func TestPanickingCellErrorIsOneLine(t *testing.T) {
	epiphany.Register(panicker{})
	res, err := epiphany.Sweep(context.Background(), epiphany.SweepPlan{
		Workloads: []string{"sweep-test-panicker"},
		Topos:     []string{"e16"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = `sim: proc "k(0,0)" panicked at t=33.3333ns: kernel fault`
	if got := res.Cells[0].Err; got != want {
		t.Fatalf("cell error %q, want %q", got, want)
	}
	for format, lines := range map[string]int{"text": 4, "markdown": 3, "csv": 2} {
		out, err := formats[format](res)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if len(rows) != lines || !strings.Contains(rows[lines-1], "panicked at t=33.3333ns: kernel fault") {
			t.Errorf("%s: %d lines, want %d with the error on the last:\n%s", format, len(rows), lines, out)
		}
	}
}
