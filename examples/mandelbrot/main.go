// Mandelbrot: plugging a custom workload into the epiphany workload
// API. Each eCore renders one tile of the Mandelbrot set - single
// precision multiply/add only, which suits a core with no divide or
// double-precision hardware - charging the modelled cycle cost of its
// escape-time loop. The workload implements epiphany.Workload, is
// registered alongside the paper's built-ins, and is looked up and
// executed through the registry exactly like they are. A per-core
// compute-load map makes the work imbalance across tiles visible.
//
//	go run ./examples/mandelbrot
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"epiphany"
	"epiphany/internal/ecore"
	"epiphany/internal/mem"
)

const (
	width, height = 96, 64           // pixels; split 8x8 -> 12x8 per core
	outOff        = mem.Addr(0x4000) // per-core tile buffer
)

// maxIter is the escape-time iteration cap (flag-settable so the smoke
// tests can render a cheap frame).
var maxIter = 200

// mandelbrot renders the set across an 8x8 workgroup. It implements
// epiphany.Workload, so it registers, validates, runs and batches like
// the built-in paper kernels.
type mandelbrot struct{}

func (mandelbrot) Name() string { return "mandelbrot" }

func (mandelbrot) Validate() error {
	if width%8 != 0 || height%8 != 0 {
		return fmt.Errorf("mandelbrot: %dx%d image not tileable over 8x8 cores", width, height)
	}
	return nil
}

// mandelResult carries the rendered image and each tile's compute
// cycles (row-major over the 8x8 workgroup) alongside the common
// metrics.
type mandelResult struct {
	metrics epiphany.Metrics
	img     []byte
	cycles  [64]uint64
}

func (r *mandelResult) Metrics() epiphany.Metrics { return r.metrics }

func (mandelbrot) Run(ctx context.Context, sys *epiphany.System) (epiphany.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	w, err := sys.NewWorkgroup(0, 0, 8, 8)
	if err != nil {
		return nil, err
	}
	tw, th := width/8, height/8

	res := &mandelResult{img: make([]byte, width*height)}
	var totalFlops uint64
	procs := w.Launch("mandel", func(c *ecore.Core, gr, gc int) {
		// Escape-time loop: ~5 single-precision ops per iteration. The
		// FPU dependency chain (zr2 -> zr -> zr2) prevents the 2-op/cycle
		// pairing the stencil enjoys; ~6 cycles per iteration is what a
		// tuned scalar loop achieves.
		var flops, cycles uint64
		for py := 0; py < th; py++ {
			for px := 0; px < tw; px++ {
				x0 := -2.2 + 3.0*float32(gc*tw+px)/width
				y0 := -1.2 + 2.4*float32(gr*th+py)/height
				var zr, zi float32
				n := 0
				for ; n < maxIter; n++ {
					zr2, zi2 := zr*zr, zi*zi
					if zr2+zi2 > 4 {
						break
					}
					zr, zi = zr2-zi2+x0, 2*zr*zi+y0
				}
				c.Local().Store8(outOff+mem.Addr(py*tw+px), uint8(n*255/maxIter))
				flops += uint64(5 * (n + 1))
				cycles += uint64(6 * (n + 1))
			}
		}
		c.Compute(cycles, flops)
		res.cycles[gr*8+gc] = cycles
		totalFlops += flops
	})

	sys.Host().Spawn("gather", func(hp *epiphany.HostProc) {
		hp.Join(procs) // step 5 of §III: the host waits, then collects
		for gr := 0; gr < 8; gr++ {
			for gc := 0; gc < 8; gc++ {
				tile := hp.ReadCore(w.CoreIndex(gr, gc), outOff, tw*th)
				for py := 0; py < th; py++ {
					copy(res.img[(gr*th+py)*width+gc*tw:], tile[py*tw:(py+1)*tw])
				}
			}
		}
	})
	if err := sys.Engine().Run(); err != nil {
		return nil, err
	}
	elapsed := sys.Engine().Now()
	res.metrics = epiphany.Metrics{
		Elapsed: elapsed,
		GFLOPS:  float64(totalFlops) / elapsed.Nanoseconds(),
	}
	return res, nil
}

func main() {
	flag.IntVar(&maxIter, "max-iter", maxIter, "escape-time iteration cap")
	flag.Parse()
	epiphany.Register(mandelbrot{})

	w, ok := epiphany.WorkloadByName("mandelbrot")
	if !ok {
		log.Fatal("mandelbrot not registered")
	}
	r, err := epiphany.Run(context.Background(), w)
	if err != nil {
		log.Fatal(err)
	}
	res := r.(*mandelResult)

	shades := []byte(" .:-=+*#%@")
	for py := 0; py < height; py += 2 { // halve vertically for terminal aspect
		line := make([]byte, width)
		for px := 0; px < width; px++ {
			v := int(res.img[py*width+px])
			line[px] = shades[v*(len(shades)-1)/255]
		}
		fmt.Println(string(line))
	}

	m := res.Metrics()
	fmt.Printf("\n%.2f simulated ms, %.2f GFLOPS achieved\n",
		m.Elapsed.Seconds()*1e3, m.GFLOPS)
	fmt.Println("per-core compute load (the set's interior is expensive):")
	fmt.Print(loadMap(res.cycles))
}

// loadMap renders the 8x8 tile loads as digits 0-9 scaled to the
// busiest tile ('.' for a tile that did no work).
func loadMap(cycles [64]uint64) string {
	var maxC uint64
	for _, c := range cycles {
		maxC = max(maxC, c)
	}
	var b strings.Builder
	for r := 0; r < 8; r++ {
		b.WriteString("  ")
		for _, c := range cycles[r*8 : r*8+8] {
			if c == 0 {
				b.WriteByte('.')
				continue
			}
			b.WriteByte(byte('0' + min(9, c*9/maxC)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
