package epiphany_test

import (
	"context"
	"fmt"

	"epiphany"
)

// ExampleRun executes the paper's §VI heat stencil through the workload
// API on a fresh system and verifies it against the host reference.
func ExampleRun() {
	w := &epiphany.StencilWorkload{Config: epiphany.StencilConfig{
		Rows: 20, Cols: 20, Iters: 10,
		GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Seed: 1,
	}}
	res, err := epiphany.Run(context.Background(), w)
	if err != nil {
		panic(err)
	}
	m := res.Metrics()
	fmt.Printf("simulated time: %v\n", m.Elapsed)
	fmt.Printf("positive throughput: %v\n", m.GFLOPS > 0)
	// Output:
	// simulated time: 45.1467us
	// positive throughput: true
}

// ExampleRunner_RunBatch runs one registered workload twice concurrently,
// each on its own fresh board; determinism makes the runs byte-identical.
func ExampleRunner_RunBatch() {
	w, ok := epiphany.WorkloadByName("matmul-cannon")
	if !ok {
		panic("matmul-cannon not registered")
	}
	runner := &epiphany.Runner{Workers: 2}
	batch, err := runner.RunWorkloads(context.Background(), w, w)
	if err != nil {
		panic(err)
	}
	if err := batch.Err(); err != nil {
		panic(err)
	}
	fmt.Printf("runs agree: %v\n",
		batch.Results[0].Result.Metrics() == batch.Results[1].Result.Metrics())
	// Output:
	// runs agree: true
}

// ExampleStencilWorkload runs the paper's §VI heat stencil on a 2x2
// workgroup and verifies its gathered grid against the host reference.
func ExampleStencilWorkload() {
	cfg := epiphany.StencilConfig{
		Rows: 20, Cols: 20, Iters: 10,
		GroupRows: 2, GroupCols: 2,
		Comm: true, Tuned: true, Seed: 1,
	}
	out, err := epiphany.Run(context.Background(), &epiphany.StencilWorkload{Config: cfg})
	if err != nil {
		panic(err)
	}
	res := out.(*epiphany.StencilResult)
	ref := epiphany.StencilReference(cfg)
	exact := true
	for r := range ref {
		for c := range ref[r] {
			if ref[r][c] != res.Global[r][c] {
				exact = false
			}
		}
	}
	fmt.Printf("matches global Jacobi: %v\n", exact)
	fmt.Printf("simulated time: %v\n", res.Elapsed)
	// Output:
	// matches global Jacobi: true
	// simulated time: 45.1467us
}

// ExampleMatmulWorkload multiplies 64x64 matrices over 16 cores with
// Cannon's algorithm and checks the product.
func ExampleMatmulWorkload() {
	cfg := epiphany.MatmulConfig{
		M: 64, N: 64, K: 64, G: 4,
		Tuned: true, Verify: true, Seed: 2,
	}
	out, err := epiphany.Run(context.Background(), &epiphany.MatmulWorkload{Config: cfg})
	if err != nil {
		panic(err)
	}
	res := out.(*epiphany.MatmulResult)
	fmt.Printf("max |diff| vs reference: %v\n",
		epiphany.MaxAbsDiff(res.C, epiphany.MatmulReference(cfg)))
	// Output:
	// max |diff| vs reference: 0
}

// ExampleStreamStencilWorkload pages a grid through the chip with
// temporal blocking (the paper's §IX proposal).
func ExampleStreamStencilWorkload() {
	cfg := epiphany.StreamStencilConfig{
		GlobalRows: 64, GlobalCols: 64,
		BlockRows: 16, BlockCols: 16,
		Iters: 6, TBlock: 3,
		GroupRows: 2, GroupCols: 2, Seed: 3,
	}
	out, err := epiphany.Run(context.Background(), &epiphany.StreamStencilWorkload{Config: cfg})
	if err != nil {
		panic(err)
	}
	res := out.(*epiphany.StreamStencilResult)
	ref := epiphany.StreamStencilReference(cfg)
	exact := true
	for r := range ref {
		for c := range ref[r] {
			if ref[r][c] != res.Global[r][c] {
				exact = false
			}
		}
	}
	fmt.Printf("matches global Jacobi: %v\n", exact)
	// Output:
	// matches global Jacobi: true
}

// ExampleExperimentByName regenerates one of the paper's tables.
func ExampleExperimentByName() {
	e, ok := epiphany.ExperimentByName("table4")
	if !ok {
		panic("missing experiment")
	}
	t := e.Run()
	fmt.Printf("%s has %d rows\n", e.Name, len(t.Rows))
	// Output:
	// table4 has 5 rows
}
