// Command epiphany-bench regenerates the paper's evaluation tables and
// figures on the simulated Epiphany system, and batch-runs workloads -
// registered presets or custom kernel configurations spelled as
// workload specs - concurrently through the Runner.
//
// Usage:
//
//	epiphany-bench -all                 # every paper experiment
//	epiphany-bench -run fig6            # one experiment
//	epiphany-bench -list                # list experiments, workloads, topologies
//	epiphany-bench -run table6 -large   # include the 1536x1536 row
//	epiphany-bench -workloads all -j 8  # batch-run the workload registry
//	epiphany-bench -workloads stencil-tuned,matmul-cannon
//	epiphany-bench -workloads matmul-offchip/m=512/n=512/k=512   # custom kernel configuration
//	epiphany-bench -workloads all -topo cluster-2x2   # on a multi-chip board
//	epiphany-bench -workloads all -power epiphany-iv-28nm        # energy columns
//	epiphany-bench -workloads all -power epiphany-iv-28nm -dvfs 300@0.8
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"epiphany"
	"epiphany/internal/bench"
	"epiphany/internal/names"
	"epiphany/internal/workload"
)

func main() {
	all := flag.Bool("all", false, "run every paper experiment")
	run := flag.String("run", "", "run one experiment by name")
	list := flag.Bool("list", false, "list experiment and registered workload names, workload spec keys, topologies and power models")
	large := flag.Bool("large", false, "include long-running rows (Table VI 1536x1536)")
	extras := flag.Bool("extras", false, "also run the extension and ablation studies")
	workloads := flag.String("workloads", "", `batch-run workloads: "all" or a comma-separated list of workload specs, each a registered name with optional "/key=value" config overrides ("matmul-offchip/m=512/n=512/k=512"; keys under -list)`)
	jobs := flag.Int("j", 0, "concurrent workers for -workloads (0 = GOMAXPROCS)")
	topo := flag.String("topo", "", `fabric topology for -workloads: a preset ("e16", "e64", "cluster-2x2"), a mesh ("4x8") or a chip grid ("grid=4x4/chip=8x8", "cluster-4x4", "e64x16"), optionally with "/c2c=BYTE:HOP" (the removed "/shards=N" engine partition is refused)`)
	powerModel := flag.String("power", "", `power-model preset for -workloads energy columns (e.g. "epiphany-iv-28nm"; defaults to it when -dvfs is given)`)
	dvfs := flag.String("dvfs", "", `DVFS operating point for -workloads, "FREQ[MHz]@VOLT[V]" (requires/implies -power)`)
	timelineFile := flag.String("timeline", "", `write each -workloads run as a Perfetto / Chrome trace-event JSON timeline to FILE (several workloads: a -<workload> suffix per run); open in ui.perfetto.dev`)
	engineStats := flag.Bool("engine-stats", false, "print the event engine's scheduler counters (executed events, event-heap peak) after the -workloads table")
	flag.Parse()

	if (*topo != "" || *powerModel != "" || *dvfs != "" || *timelineFile != "" || *engineStats) && *workloads == "" {
		fmt.Fprintln(os.Stderr, "-topo/-power/-dvfs/-timeline/-engine-stats only apply to -workloads; the paper experiments are defined on the default board")
		os.Exit(2)
	}
	if *dvfs != "" && *powerModel == "" {
		*powerModel = "epiphany-iv-28nm"
	}
	// Resolve the energy flags up front so a typo is one clean error,
	// not a per-job failure wall (and the footer below can rely on the
	// model resolving).
	if *powerModel != "" {
		m, ok := epiphany.PowerModelByName(*powerModel)
		if !ok {
			// Same suggestion-bearing message the library (and the serve
			// daemon's 400s) produce for the typo.
			fmt.Fprintln(os.Stderr, names.Unknown("power model", *powerModel, epiphany.PowerModels()))
			os.Exit(1)
		}
		if _, err := m.Point(*dvfs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch {
	case *list:
		fmt.Println("experiments:")
		for _, e := range bench.Experiments {
			fmt.Printf("  %s\n", e.Name)
		}
		for _, e := range bench.Extras {
			fmt.Printf("  %s (extra)\n", e.Name)
		}
		// The workload names come from the registry, so workloads
		// registered by linked-in packages are enumerated too. Every
		// registered workload runs on every topology below (-topo).
		fmt.Println("workloads (each runnable on every topology):")
		for _, w := range epiphany.Workloads() {
			fmt.Printf("  %s\n", w.Name())
		}
		fmt.Println("workload keys (NAME/key=value/..., by the preset's kind):")
		for _, line := range workload.KeyUsage() {
			fmt.Printf("  %s\n", line)
		}
		fmt.Println("topologies:")
		for _, t := range epiphany.Topologies() {
			fmt.Printf("  %s\n", t)
		}
		fmt.Println("power models (-power):")
		for _, name := range epiphany.PowerModels() {
			m, _ := epiphany.PowerModelByName(name)
			fmt.Printf("  %s: nominal %s, ladder %v\n", name, m.Nominal, m.Points)
		}
	case *workloads != "":
		runWorkloads(*workloads, *jobs, *topo, *powerModel, *dvfs, *timelineFile, *engineStats)
	case *run != "":
		e, ok := bench.ByName(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		if *run == "table6" && *large {
			show(bench.Experiment{Name: "table6", Run: func() *bench.Table { return bench.Table6(true) }})
			return
		}
		show(e)
	case *all:
		for _, e := range bench.Experiments {
			if e.Name == "table6" && *large {
				e = bench.Experiment{Name: "table6", Run: func() *bench.Table { return bench.Table6(true) }}
			}
			show(e)
		}
		if *extras {
			for _, e := range bench.Extras {
				show(e)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runWorkloads parses the selection's workload specs, drops repeats of
// one canonical spelling, and executes the rest as one concurrent batch,
// each job on its own fresh System built on the selected topology, with
// energy columns when a power model is attached. Perfetto timelines are
// captured per job into memory (jobs run concurrently) and written out
// after the batch.
func runWorkloads(sel string, workers int, topoName, powerModel, dvfs, timelineFile string, engineStats bool) {
	var ws []epiphany.Workload
	if sel == "all" {
		ws = epiphany.Workloads()
	} else {
		seen := make(map[string]bool)
		for _, spec := range strings.Split(sel, ",") {
			w, err := epiphany.ParseWorkload(strings.TrimSpace(spec))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if !seen[w.Name()] {
				seen[w.Name()] = true
				ws = append(ws, w)
			}
		}
	}
	runner := &epiphany.Runner{Workers: workers}
	if topoName != "" {
		topo, err := epiphany.ParseTopology(topoName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runner.Options = []epiphany.Option{epiphany.WithTopology(topo)}
		fmt.Printf("topology: %s\n", topo)
	}
	if powerModel != "" {
		runner.Options = append(runner.Options, epiphany.WithPowerModel(powerModel, dvfs))
	}
	if engineStats {
		runner.Options = append(runner.Options, epiphany.WithEngineStats())
	}
	jobs := make([]epiphany.Job, len(ws))
	timelines := make([]*bytes.Buffer, len(ws))
	for i, w := range ws {
		jobs[i] = epiphany.Job{Workload: w}
		if timelineFile != "" {
			timelines[i] = &bytes.Buffer{}
			jobs[i].Options = append(jobs[i].Options, epiphany.WithTimeline(timelines[i]))
		}
	}
	start := time.Now()
	batch, err := runner.RunBatch(context.Background(), jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The name column fits the longest workload spec in the batch.
	nameW := 22
	for _, w := range ws {
		nameW = max(nameW, len(w.Name()))
	}
	fmt.Printf("%-*s %-14s %10s %8s %11s %11s %12s",
		nameW, "workload", "simulated", "GFLOPS", "% peak", "% compute", "% transfer", "x-chip time")
	if powerModel != "" {
		fmt.Printf(" %12s %8s %9s", "energy (mJ)", "avg W", "GFLOPS/W")
	}
	fmt.Println()
	for _, jr := range batch.Results {
		if jr.Err != nil {
			fmt.Printf("%-*s FAILED: %v\n", nameW, jr.Name, jr.Err)
			continue
		}
		m := jr.Result.Metrics()
		split := []string{"-", "-"}
		if m.ComputeTime+m.TransferTime > 0 {
			split[0] = fmt.Sprintf("%.1f", m.PctCompute())
			split[1] = fmt.Sprintf("%.1f", m.PctTransfer())
		}
		xchip := "-"
		if m.ELinkCrossings > 0 {
			xchip = fmt.Sprint(m.ELinkCrossTime)
		}
		fmt.Printf("%-*s %-14v %10.2f %8.1f %11s %11s %12s",
			nameW, jr.Name, m.Elapsed, m.GFLOPS, m.PctPeak, split[0], split[1], xchip)
		if powerModel != "" {
			fmt.Printf(" %12.3f %8.3f %9.2f", m.EnergyJ*1e3, m.AvgPowerW, m.GFLOPSPerWatt)
		}
		fmt.Println()
	}
	if engineStats {
		for _, jr := range batch.Results {
			if jr.Err != nil {
				continue
			}
			if st := jr.Result.Metrics().Engine; st != nil {
				fmt.Printf("\n%s %s", jr.Name, st)
			}
		}
	}
	if powerModel != "" {
		// Both resolved successfully in main before the batch ran.
		m, _ := epiphany.PowerModelByName(powerModel)
		op, _ := m.Point(dvfs)
		fmt.Printf("[power model %s at %s]\n", powerModel, op)
	}
	writeCaptures(timelineFile, timelines, batch)
	fmt.Printf("[%d workloads in %v wall clock]\n", len(batch.Results), time.Since(start).Round(time.Millisecond))
	if err := batch.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeCaptures flushes per-job capture buffers to disk: to base itself
// for a single workload, or with a -<workload> name suffix each when
// the batch ran several. The suffix maps every byte outside
// [A-Za-z0-9._=-] - the "/" of a workload spec above all - to "_", so a
// capture never lands in a subdirectory.
var unsafeInName = regexp.MustCompile(`[^A-Za-z0-9._=-]`)

func writeCaptures(base string, bufs []*bytes.Buffer, batch *epiphany.BatchResult) {
	if base == "" {
		return
	}
	for i, buf := range bufs {
		jr := batch.Results[i]
		if buf == nil || jr.Err != nil {
			continue
		}
		path := base
		if len(bufs) > 1 {
			ext := filepath.Ext(base)
			path = strings.TrimSuffix(base, ext) + "-" + unsafeInName.ReplaceAllString(jr.Name, "_") + ext
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[timeline written to %s]\n", path)
	}
}

func show(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	fmt.Println(t)
	fmt.Printf("[%s regenerated in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}
