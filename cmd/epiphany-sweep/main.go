// Command epiphany-sweep runs declarative experiment sweeps: a
// workload x topology x seed grid executed on the concurrent batch
// Runner, aggregated into a scaling table with speedup, parallel
// efficiency and chip-boundary crossing columns derived against a
// baseline topology.
//
// Output is deterministic: the same invocation produces bit-identical
// bytes on every run and with any -workers value, so redirected sweep
// output can be checked in as a golden scaling table.
//
// Usage:
//
//	epiphany-sweep                              # all workloads x {e16, e64, cluster-2x2}
//	epiphany-sweep -list                        # list workloads, topology presets, plans
//	epiphany-sweep -workloads stencil-tuned,matmul-offchip -topos e64,cluster-2x2
//	epiphany-sweep -workloads stream-stencil/t=1,stream-stencil/t=4   # custom kernel configurations
//	epiphany-sweep -topos e16,4x8,e64           # ad-hoc single-chip meshes mix in
//	epiphany-sweep -topos e64,grid=4x4/chip=8x8 # parameterized chip grids (1024 cores)
//	epiphany-sweep -topos cluster-2x2,cluster-2x2/c2c=40:600   # sweep the c2c link speed
//	epiphany-sweep -seeds 1,2,3 -baseline e64   # seed axis, speedup vs the e64 cells
//	epiphany-sweep -format csv -o sweep.csv     # machine-grade golden output
//	epiphany-sweep -power epiphany-iv-28nm      # energy columns on every cell
//	epiphany-sweep -dvfs 300MHz@0.8V,600MHz@1.0V,800MHz@1.2V   # frequency-scaling axis
//	epiphany-sweep -plan scaling-1024           # registered plan: the 1024-core scaling study
//	epiphany-sweep -workloads matmul-offchip -topos cluster-2x2 -engine-stats -timeline t.json
//
// -engine-stats prints each cell's event-engine counters to stderr, and
// -timeline writes each cell's Perfetto timeline to a file, so stdout
// carries only the table in every -format.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"epiphany"
	"epiphany/internal/workload"
)

// formats renders a sweep result in each -format spelling.
var formats = map[string]func(*epiphany.SweepResult) ([]byte, error){
	"text":     func(r *epiphany.SweepResult) ([]byte, error) { return []byte(r.Text()), nil },
	"markdown": func(r *epiphany.SweepResult) ([]byte, error) { return []byte(r.Markdown()), nil },
	"md":       func(r *epiphany.SweepResult) ([]byte, error) { return []byte(r.Markdown()), nil },
	"csv":      func(r *epiphany.SweepResult) ([]byte, error) { return []byte(r.CSV()), nil },
	"json": func(r *epiphany.SweepResult) ([]byte, error) {
		b, err := r.JSON()
		return append(b, '\n'), err
	},
}

func main() {
	workloads := flag.String("workloads", "all", `workloads to sweep: "all" or a comma-separated list of workload specs, each a registered name with optional "/key=value" config overrides (keys under -list)`)
	topos := flag.String("topos", "", `topology axis: comma-separated presets ("e16"), meshes ("4x8"), chip grids ("grid=4x4/chip=8x8", "cluster-4x4", "e64x16"), each with an optional "/c2c=BYTE:HOP" override (the removed "/shards=N" engine partition is refused); empty = all presets`)
	seeds := flag.String("seeds", "", "seed axis: comma-separated uint64s; empty = each workload's default seed")
	baseline := flag.String("baseline", "", "topology the speedup/efficiency columns compare against, in any spelling of a -topos value (default: smallest on the axis)")
	powerModel := flag.String("power", "", `power-model preset for energy columns (e.g. "epiphany-iv-28nm"); empty = no energy accounting (defaults to epiphany-iv-28nm when -dvfs is given)`)
	dvfs := flag.String("dvfs", "", `DVFS operating-point axis: comma-separated "FREQ[MHz]@VOLT[V]" points (e.g. "300@0.8,600@1.0"); empty with -power = the model's nominal point`)
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS); never affects the output bytes")
	format := flag.String("format", "text", "output format: text, markdown, csv or json")
	out := flag.String("o", "", "write output to this file instead of stdout")
	planName := flag.String("plan", "", `registered plan to run (e.g. "scaling-1024"); the axis flags override its fields`)
	list := flag.Bool("list", false, "list registered workloads, workload spec keys, topology presets, power models and plans")
	timelineFile := flag.String("timeline", "", `write each cell's run as a Perfetto / Chrome trace-event JSON timeline to FILE (several cells: a -<cell> suffix each); open in ui.perfetto.dev`)
	engineStats := flag.Bool("engine-stats", false, "print each cell's event-engine counters (executed events, event-heap peak) to stderr")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "epiphany-sweep: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range epiphany.Workloads() {
			fmt.Printf("  %s\n", w.Name())
		}
		fmt.Println("workload keys (NAME/key=value/..., by the preset's kind):")
		for _, line := range workload.KeyUsage() {
			fmt.Printf("  %s\n", line)
		}
		fmt.Println("topology presets (the grammar also accepts ad-hoc meshes like 4x8, chip grids like grid=4x4/chip=8x8, cluster-4x4 or e64x16 and /c2c=BYTE:HOP overrides):")
		for _, t := range epiphany.Topologies() {
			fmt.Printf("  %s\n", t)
		}
		fmt.Println("power models (-power; ad-hoc -dvfs points like 450@0.85 also accepted):")
		for _, name := range epiphany.PowerModels() {
			m, _ := epiphany.PowerModelByName(name)
			fmt.Printf("  %s: nominal %s, ladder %v\n", name, m.Nominal, m.Points)
		}
		fmt.Println("plans (-plan):")
		for _, p := range epiphany.SweepPlans() {
			fmt.Printf("  %s: %s\n", p.Name, p.Description)
		}
		return
	}

	render, ok := formats[*format]
	if !ok {
		fail(fmt.Errorf("unknown -format %q (text, markdown, csv, json)", *format))
	}
	// A DVFS axis without a model means the caller wants the frequency
	// scaling of the reference device; default to the calibrated preset.
	if *dvfs != "" && *powerModel == "" {
		*powerModel = "epiphany-iv-28nm"
	}
	flagPlan, err := buildPlan(*workloads, *topos, *seeds, *baseline)
	if err != nil {
		fail(err)
	}
	flagPlan.Power = *powerModel
	flagPlan.DVFS = splitList(*dvfs)
	plan := flagPlan
	if *planName != "" {
		named, err := epiphany.ResolveSweepPlan(*planName)
		if err != nil {
			fail(err)
		}
		plan = overlayPlan(named.Plan, flagPlan)
	}
	// Timelines are captured per cell into memory (cells run
	// concurrently) and written out after the sweep; Sweep calls the
	// option functions in expansion order, so timelines[i] is cell i's.
	var cellOpts []func(epiphany.SweepCell) epiphany.Option
	if *engineStats {
		cellOpts = append(cellOpts, func(epiphany.SweepCell) epiphany.Option { return epiphany.WithEngineStats() })
	}
	var timelines []*bytes.Buffer
	if *timelineFile != "" {
		cellOpts = append(cellOpts, func(epiphany.SweepCell) epiphany.Option {
			buf := &bytes.Buffer{}
			timelines = append(timelines, buf)
			return epiphany.WithTimeline(buf)
		})
	}
	res, err := epiphany.Sweep(context.Background(), plan, *workers, cellOpts...)
	if err != nil {
		fail(err)
	}

	rendered, err := render(res)
	if err != nil {
		fail(err)
	}
	if *out == "" {
		os.Stdout.Write(rendered)
	} else if err := os.WriteFile(*out, rendered, 0o644); err != nil {
		fail(err)
	}
	for i, c := range res.Cells {
		if c.Err != "" {
			continue
		}
		if st := c.Metrics.Engine; st != nil {
			fmt.Fprintf(os.Stderr, "%s %s", cellLabel(c), st)
		}
		if timelines != nil {
			path := *timelineFile
			if len(res.Cells) > 1 {
				ext := filepath.Ext(path)
				path = strings.TrimSuffix(path, ext) + "-" + unsafeInName.ReplaceAllString(cellLabel(c), "_") + ext
			}
			if err := os.WriteFile(path, timelines[i].Bytes(), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[timeline written to %s]\n", path)
		}
	}

	// Failed cells keep the table shape but must fail the invocation:
	// CI smoke runs rely on the exit status.
	for _, c := range res.Cells {
		if c.Err != "" {
			fmt.Fprintf(os.Stderr, "cell %s/%s failed: %s\n", c.Workload, c.Topology, c.Err)
			os.Exit(1)
		}
	}
}

// cellLabel names a cell by its coordinates: workload and topology,
// then the DVFS point and seed when the plan has those axes.
func cellLabel(c epiphany.SweepCellResult) string {
	label := c.Workload + "@" + c.Topology
	if c.DVFS != "" {
		label += "@" + c.DVFS
	}
	if c.Seed != nil {
		label += "@seed=" + strconv.FormatUint(*c.Seed, 10)
	}
	return label
}

// unsafeInName matches every byte a timeline file suffix must not
// carry - the "/" of a workload or topology spec above all - so a
// capture never lands in a subdirectory; each maps to "_".
var unsafeInName = regexp.MustCompile(`[^A-Za-z0-9._=-]`)

// overlayPlan starts from a registered plan and overrides whichever
// axes the flags spelled explicitly, so `-plan scaling-1024 -workloads
// stencil-tuned` reruns just one workload of the study.
func overlayPlan(base, flags epiphany.SweepPlan) epiphany.SweepPlan {
	if len(flags.Workloads) > 0 {
		base.Workloads = flags.Workloads
	}
	if len(flags.Topos) > 0 {
		base.Topos = flags.Topos
	}
	if len(flags.Seeds) > 0 {
		base.Seeds = flags.Seeds
	}
	if flags.Baseline != "" {
		base.Baseline = flags.Baseline
	}
	if flags.Power != "" {
		base.Power = flags.Power
	}
	if len(flags.DVFS) > 0 {
		base.DVFS = flags.DVFS
	}
	return base
}

// buildPlan translates the comma-separated flags into a SweepPlan.
func buildPlan(workloads, topos, seeds, baseline string) (epiphany.SweepPlan, error) {
	p := epiphany.SweepPlan{Topos: splitList(topos), Baseline: baseline}
	if workloads != "all" {
		p.Workloads = splitList(workloads)
	}
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed %q: %v", s, err)
		}
		p.Seeds = append(p.Seeds, v)
	}
	return p, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
