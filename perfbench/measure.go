package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide the figure.
const setupReps = 9

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"heap_inuse_mb", "MB"},
	{"setup_s", "s"},
}

// subWindows is how many equal slices a timed window is cut into.
// Throughput and CPU per op are the median over the slices, so a burst
// of host noise in one slice does not move them.
const subWindows = 5

// window is what one timed closed-loop window measured.
type window struct {
	lat       []time.Duration // wall time of every successful op
	attempted int64
	failed    int64
	firstErr  error
	mallocs   uint64
	bytes     uint64
	slices    []slice
}

// slice is one sub-window: successful ops, wall time and process CPU.
type slice struct {
	ops       int64
	wall, cpu time.Duration
}

// runWindow drives d with clients closed-loop clients until dur has
// passed: each client submits its next op only when the previous one
// completed. With a non-nil tracer every op gets a root span.
func runWindow(ctx context.Context, d bench, clients int, dur time.Duration, tr *tracer) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)

	// The sampler cuts the window into slices; the last one closes when
	// the last client's final op completes.
	var done atomic.Int64
	var slices []slice
	lastT, lastCPU, lastOps := start, cpu0, int64(0)
	mark := func() {
		now, cpu, ops := time.Now(), cpuTime(), done.Load()
		slices = append(slices, slice{ops: ops - lastOps, wall: now.Sub(lastT), cpu: cpu - lastCPU})
		lastT, lastCPU, lastOps = now, cpu, ops
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 1; i < subWindows; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / subWindows)))
			mark()
		}
	}()

	per := make([]window, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &per[c]
			for time.Now().Before(deadline) {
				root := tr.begin(c, "op", "op", 0)
				t0 := time.Now()
				err := safeDo(ctx, d, c, tr, root)
				el := time.Since(t0)
				tr.end(root)
				w.attempted++
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				}
				w.lat = append(w.lat, el)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	<-sampled
	mark()

	win := window{slices: slices}
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, w := range per {
		win.lat = append(win.lat, w.lat...)
		win.attempted += w.attempted
		win.failed += w.failed
		if win.firstErr == nil {
			win.firstErr = w.firstErr
		}
	}
	return win
}

// safeDo runs one op, reporting a panic out of the simulator as a
// failed op rather than ending the benchmark.
func safeDo(ctx context.Context, d bench, client int, tr *tracer, parent int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("op panicked: %v", p)
		}
	}()
	return d.do(ctx, client, tr, parent)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuseMB is the live heap after a forced collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// ops is the number of successful ops in the window.
func (w window) ops() int { return len(w.lat) }

// opsPerS is successful ops per host second, the median over slices.
func (w window) opsPerS() float64 {
	rates := make([]float64, len(w.slices))
	for i, s := range w.slices {
		rates[i] = float64(s.ops) / s.wall.Seconds()
	}
	return median(rates)
}

// cpuMSPerOp is process CPU per successful op, the median over slices
// that completed an op.
func (w window) cpuMSPerOp() float64 {
	var per []float64
	for _, s := range w.slices {
		if s.ops > 0 {
			per = append(per, float64(s.cpu)/1e6/float64(s.ops))
		}
	}
	return median(per)
}

// percentile is the nearest-rank p-th percentile of sorted, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e6
}

// tailLadder is the set of percentiles latency_tail_ms picks from. It
// stops at p99: on a small shared host the top 0.1% of ops measures the
// host's scheduling noise, not the simulator.
var tailLadder = []float64{99, 90, 50}

// tailPercentile is the highest ladder percentile with at least ten
// samples beyond it among n.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// setUp builds the scenario reps times and returns the last bench with
// the median set-up time in seconds. Earlier benches are closed; the
// heap is collected before each set-up so one set-up's garbage does not
// bill the next.
func setUp(ctx context.Context, sc scenario, seed uint64, reps int, tr *tracer) (bench, float64, error) {
	var d bench
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		sp := tr.begin(tidSetup, "setup", "setup", 0)
		t0 := time.Now()
		var err error
		d, err = sc.setup(ctx, seed, tr, sp)
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return d, median(times), nil
}

// runEndToEnd sets the scenario up, runs its timed loop untraced and
// reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, sc scenario, cfg config, w io.Writer) (result, error) {
	d, setupS, err := setUp(ctx, sc, cfg.seed, setupReps, nil)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	clients := sc.clients()
	win := runWindow(ctx, d, clients, cfg.dur, nil)
	heap := heapInuseMB() // with the bench's boards and cache still live
	if win.ops() == 0 {
		return result{}, fmt.Errorf("no op completed in %v (first error: %v)", cfg.dur, win.firstErr)
	}

	sort.Slice(win.lat, func(i, j int) bool { return win.lat[i] < win.lat[j] })
	tail := tailPercentile(win.ops())
	ops := float64(win.ops())
	ms := map[string]metric{
		"ops_per_s":       {win.opsPerS(), "1/s"},
		"latency_p50_ms":  {percentile(win.lat, 50), "ms"},
		"latency_tail_ms": {percentile(win.lat, tail), "ms"},
		"cpu_ms_per_op":   {win.cpuMSPerOp(), "ms"},
		"allocs_per_op":   {float64(win.mallocs) / ops, "count"},
		"alloc_mb_per_op": {float64(win.bytes) / 1e6 / ops, "MB"},
		"heap_inuse_mb":   {heap, "MB"},
		"setup_s":         {setupS, "s"},
	}
	names := make([]string, len(endToEnd))
	for i, m := range endToEnd {
		names[i] = m.name
	}
	notes := map[string]string{
		"latency_tail_ms": fmt.Sprintf("p%g of %d ops", tail, win.ops()),
		"setup_s":         fmt.Sprintf("median of %d set-ups", setupReps),
	}
	title := fmt.Sprintf("%s: end to end, seed %d, %v, %d client(s)", sc.name, cfg.seed, cfg.dur, clients)
	printMetrics(w, title, names, ms, notes)
	fmt.Fprintf(w, "  %-34s %14.6g %-6s  %d of %d ops failed\n", "error_rate",
		float64(win.failed)/float64(win.attempted), "ratio", win.failed, win.attempted)
	if win.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", win.firstErr)
	}
	return result{Attempted: win.attempted, Failed: win.failed, Metrics: ms}, nil
}
