// Command perfbench is the simulator's benchmark. It runs one seeded
// workload in a closed loop through the simulator's public entry points,
// checks every simulated result against a reference, and reports host
// time - never simulated time, which is part of the correctness check.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same workload traced and prints the per-layer ledger. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. LEDGER.md says what each
// metric measures and which end-to-end metric each layer metric moves.
//
//	bash perfbench/run.sh --workload paper-e64 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict, printed as the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed uint64
	dur  time.Duration
	out  string
	env  environment
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(scenarioNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs and op sequence derive from")
	seconds := fs.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced per-layer ledger")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for the Perfetto trace and the CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = scenarioNames()
	}
	cfg := config{
		seed: *seed,
		dur:  time.Duration(*seconds * float64(time.Second)),
		out:  *out,
		env:  stamp(),
	}
	fmt.Fprintln(stdout, cfg.env)

	ctx := context.Background()
	total := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, n := range names {
		sc, ok := scenarioByName(n)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", n, strings.Join(scenarioNames(), ", "))
			return 2
		}
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(ctx, sc, cfg, stdout)
		} else {
			res, err = runEndToEnd(ctx, sc, cfg, stdout)
		}
		if err == nil {
			err = finite(res.Metrics)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		res.Correct = res.Failed == 0 && res.Attempted > 0
		last = res
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[n+"."+k] = m
		}
		if len(names) > 1 {
			printJSON(stdout, res)
		}
	}
	if len(names) > 1 {
		last = total
	}
	printJSON(stdout, last)
	return 0
}

// finite reports a metric that came out NaN or infinite, which happens
// only when a run completed too few ops to measure it.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: too few ops completed to measure it", name, m.Value)
		}
	}
	return nil
}

func printJSON(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Fprintln(w, string(b))
}

// printMetrics writes a human-readable block of metrics in the order
// names gives, with notes keyed by metric name appended.
func printMetrics(w io.Writer, title string, names []string, ms map[string]metric, notes map[string]string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, n := range names {
		m, ok := ms[n]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if note := notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// environment is the stamp recorded with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stamp() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func (e environment) String() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s",
		e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Commit)
}

// cpuModel reads the processor name the kernel reports, or the
// architecture where none is available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when it was
// built inside a git work tree.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
