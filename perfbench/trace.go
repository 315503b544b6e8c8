package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Track ids for spans that belong to no client.
const (
	tidSetup  = 100
	tidLedger = 101
	tidProbe  = 102
)

// span is one timed call into a layer, made from the benchmark's files.
type span struct {
	id, parent int
	tid        int
	cat, name  string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span on track tid under parent (0 for none) and returns
// its id.
func (t *tracer) begin(tid int, cat, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, tid: tid, cat: cat, name: name, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durations returns the durations of the closed spans whose name starts
// with prefix and that began in [from, to).
func (t *tracer) durations(prefix string, from, to time.Duration) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.start >= from && s.start < to && s.end > 0 && strings.HasPrefix(s.name, prefix) {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// now is the tracer's clock.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// writePerfetto writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev opens, with the environment stamp as metadata.
func (t *tracer) writePerfetto(path string, env environment) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end == 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": env})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// startProfile starts a CPU profile into path and returns the function
// that stops it.
func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuLayers are the buckets the CPU profile is attributed to, in report
// order. Simulator packages are named by their directory under
// internal/.
var cpuLayers = []string{
	"sim", "noc", "dma", "mem", "ecore", "core", "system", "workload", "serve",
	"runtime_gc", "runtime_sched", "net_http",
}

// cpuShares attributes the profile's flat samples to cpuLayers (plus
// "other") with the toolchain's pprof, and returns each bucket's share
// of all samples.
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", exe, profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(string(out))
}

// parsePprofTop sums the flat column of `pprof -top -unit=ms` output by
// bucket.
func parsePprofTop(out string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	body := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !body {
			body = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		shares[bucket(f[5])] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// bucket maps a function name from a profile to its cpuLayers bucket.
func bucket(fn string) string {
	// The package path ends at the first dot after its last slash;
	// receivers and type arguments, which may hold slashes of their own,
	// come later.
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	if j := strings.Index(pkg[strings.LastIndex(pkg, "/")+1:], "."); j >= 0 {
		pkg = pkg[:strings.LastIndex(pkg, "/")+1+j]
	}
	if layer, ok := strings.CutPrefix(pkg, "epiphany/internal/"); ok {
		return layer
	}
	switch {
	case pkg == "runtime":
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	}
	return "other"
}

// runtimeGC and runtimeSched are name fragments that place a runtime
// function in the collector and allocator, or in the scheduler,
// channels and locks. Anything else in the runtime counts as other.
// memclr is the allocator's: it zeroes every large allocation, such as a
// new board's memories; a clear() in user code lands there too.
var (
	runtimeGC = []string{"gc", "GC", "mark", "Mark", "sweep", "Sweep", "scan", "grey", "wbBuf",
		"malloc", "mcache", "mcentral", "mheap", "mspan", "nextFree", "newobject", "makeslice",
		"growslice", "heapBits", "findObject", "bulkBarrier", "largeAlloc", "memclr"}
	runtimeSched = []string{"schedule", "findRunnable", "park", "ready", "mcall", "gogo",
		"runq", "casgstatus", "chan", "select", "Sudog", "futex", "note", "lock", "unlock",
		"execute", "wakep", "startm", "stopm", "goexit", "newproc", "gfget", "gfput",
		"osyield", "usleep", "procyield", "netpoll", "semacquire", "semrelease", "stealWork"}
)

func runtimeBucket(fn string) string {
	for _, frag := range runtimeGC {
		if strings.Contains(fn, frag) {
			return "runtime_gc"
		}
	}
	for _, frag := range runtimeSched {
		if strings.Contains(fn, frag) {
			return "runtime_sched"
		}
	}
	return "other"
}
