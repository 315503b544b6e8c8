// Command epiphany-bench regenerates the paper's evaluation tables and
// figures on the simulated Epiphany system. Batch runs of workloads
// over topologies, power models and DVFS points are epiphany-sweep's
// job.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"epiphany/internal/bench"
)

// moved lists the batch-mode flags that epiphany-sweep took over, by
// their epiphany-sweep names. Each stays registered only to refuse its
// use with the sweep spelling of the same run.
var moved = []struct {
	name, sweep string
	isBool      bool
}{
	{"workloads", "workloads", false},
	{"j", "workers", false},
	{"topo", "topos", false},
	{"power", "power", false},
	{"dvfs", "dvfs", false},
	{"timeline", "timeline", false},
	{"engine-stats", "engine-stats", true},
}

func main() {
	all := flag.Bool("all", false, "run every paper experiment")
	run := flag.String("run", "", "run one experiment by name")
	list := flag.Bool("list", false, "list experiment names")
	large := flag.Bool("large", false, "include long-running rows (Table VI 1536x1536)")
	extras := flag.Bool("extras", false, "also run the extension and ablation studies")
	for _, m := range moved {
		refuse := func(v string) error {
			spelling := "epiphany-sweep -" + m.sweep
			switch {
			case m.isBool:
			case m.name == "workloads":
				spelling += " " + v + " -topos e64" // the board the bench batch ran on
			default:
				spelling += " " + v
			}
			return errors.New("moved to epiphany-sweep: " + spelling)
		}
		if m.isBool {
			flag.BoolFunc(m.name, "moved to epiphany-sweep -"+m.sweep, refuse)
		} else {
			flag.Func(m.name, "moved to epiphany-sweep -"+m.sweep, refuse)
		}
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "epiphany-bench: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
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

func show(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	fmt.Println(t)
	fmt.Printf("[%s regenerated in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}
