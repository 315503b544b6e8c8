// Command epiphany-bench regenerates the paper's evaluation tables and
// figures on the simulated Epiphany system, and nothing else: batch
// runs of workloads over topologies, power models and DVFS points are
// epiphany-sweep's job, and any other flag is rejected with the usage.
//
// Usage:
//
//	epiphany-bench -all                 # every paper experiment
//	epiphany-bench -all -extras         # plus the extension and ablation studies
//	epiphany-bench -run fig6            # one experiment
//	epiphany-bench -list                # list experiments
//	epiphany-bench -run table6 -large   # include the 1536x1536 row
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"epiphany/internal/bench"
)

func main() {
	all := flag.Bool("all", false, "run every paper experiment")
	run := flag.String("run", "", "run one experiment by name")
	list := flag.Bool("list", false, "list experiment names")
	large := flag.Bool("large", false, "include long-running rows (Table VI 1536x1536)")
	extras := flag.Bool("extras", false, "also run the extension and ablation studies")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: epiphany-bench -all [-extras] [-large] | -run NAME [-large] | -list")
		fmt.Fprintln(out, "regenerates the paper's tables and figures; for batch runs of workloads over")
		fmt.Fprintln(out, "topologies, power models and DVFS points use epiphany-sweep (epiphany-sweep -h)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "epiphany-bench: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var runs []bench.Experiment
	switch {
	case *list:
		fmt.Println("experiments:")
		for _, e := range bench.Experiments {
			fmt.Printf("  %s\n", e.Name)
		}
		for _, e := range bench.Extras {
			fmt.Printf("  %s (extra)\n", e.Name)
		}
		return
	case *run != "":
		e, ok := bench.ByName(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		runs = []bench.Experiment{e}
	case *all:
		runs = bench.Experiments
		if *extras {
			runs = append(runs[:len(runs):len(runs)], bench.Extras...)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	for _, e := range runs {
		if e.Name == "table6" && *large {
			e.Run = func() *bench.Table { return bench.Table6(true) }
		}
		show(e)
	}
}

func show(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	fmt.Println(t)
	fmt.Printf("[%s regenerated in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}
