package epiphany_test

// Smoke tests for the example programs: each must build and run to
// completion on a tiny problem size. The examples self-verify against
// host references and exit nonzero on any diff, so a clean exit is a
// real correctness check, not just a compile check.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exampleSmokes shrinks each example to a problem that simulates in
// well under a second; the flags default to the showcase sizes.
var exampleSmokes = []struct {
	name string
	args []string
	want string // a marker the healthy output always contains
}{
	{"quickstart", []string{"-iters", "2", "-n", "64"}, "max |diff| vs host reference"},
	{"heat", []string{"-iters", "4"}, "after 4 iterations"},
	{"bigmatmul", []string{"-n", "256"}, "max |diff| vs host ref"},
	{"mandelbrot", []string{"-max-iter", "16"}, "GFLOPS achieved"},
	{"pingpong", []string{"-loops", "3"}, "mutex demo"},
	{"streaming", []string{"-size", "128", "-block", "16", "-iters", "8"}, "bit-identical to global Jacobi"},
}

func TestExamplesRunToCompletion(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	for _, ex := range exampleSmokes {
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", "./examples/" + ex.name}, ex.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %v: %v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("output of %s lacks %q:\n%s", ex.name, ex.want, out)
			}
		})
	}
}

// TestCLIsSmoke builds the batch and paper-experiment CLIs and drives
// their observability flags and argument checks end to end.
func TestCLIsSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/epiphany-sweep", "./cmd/epiphany-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sweep := filepath.Join(bin, "epiphany-sweep")
	benchCLI := filepath.Join(bin, "epiphany-bench")

	t.Run("engine-stats and timeline", func(t *testing.T) {
		dir := t.TempDir()
		file := filepath.Join(dir, "t.json")
		cmd := exec.Command(sweep, "-workloads", "matmul-offchip", "-topos", "cluster-2x2",
			"-engine-stats", "-timeline", file)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v\n%s%s", err, stdout, stderr.String())
		}
		// The TestEngineStatsGolden cell, reported on stderr only.
		if !strings.Contains(stderr.String(), "matmul-offchip@cluster-2x2 engine: 13238 events, heap peak 72") {
			t.Errorf("stderr lacks the engine counters:\n%s", stderr.String())
		}
		if strings.Contains(string(stdout), "engine:") || strings.Contains(string(stdout), "timeline") {
			t.Errorf("stdout carries more than the table:\n%s", stdout)
		}
		js, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(js) {
			t.Fatal("timeline is not valid JSON")
		}
		for _, want := range []string{`"c2c"`, `"name":"compute"`, `"name":"dma-wait"`} {
			if !strings.Contains(string(js), want) {
				t.Errorf("timeline lacks %s", want)
			}
		}
	})

	t.Run("timeline per cell", func(t *testing.T) {
		dir := t.TempDir()
		out, err := exec.Command(sweep, "-workloads", "stencil-tuned/rows=20,stream-stencil",
			"-topos", "e16", "-timeline", filepath.Join(dir, "t.json")).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("%d entries in the timeline directory, want 2", len(entries))
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), "t-") || !strings.HasSuffix(e.Name(), ".json") {
				t.Errorf("unexpected timeline entry %q", e.Name())
			}
		}
	})

	type failure struct {
		name string
		cmd  *exec.Cmd
		want []string
	}
	var failures []failure
	// The bench CLI's removed batch-mode flags are undefined: each is
	// rejected with the usage, which names the sweep CLI.
	for _, args := range [][]string{
		{"-workloads", "all"}, {"-j", "8"}, {"-topo", "e16"}, {"-power", "epiphany-iv-28nm"},
		{"-dvfs", "300@0.8"}, {"-timeline", "t.json"}, {"-engine-stats"},
	} {
		failures = append(failures, failure{"bench " + args[0], exec.Command(benchCLI, args...),
			[]string{"flag provided but not defined: " + args[0], "epiphany-sweep"}})
	}
	for _, tc := range append(failures, []failure{
		{"sweep stray argument", exec.Command(sweep, "-workloads", "stencil-tuned", "-topos", "e16", "oops", "-format", "bogus"), []string{`unexpected arguments ["oops"`}},
		{"bench stray argument", exec.Command(benchCLI, "-list", "oops"), []string{`unexpected arguments ["oops"]`}},
		{"sweep format checked first", exec.Command(sweep, "-plan", "scaling-1024", "-format", "xml"), []string{`unknown -format "xml"`}},
	}...) {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("%v exited 0:\n%s", tc.cmd.Args, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}
