package serve

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service's Prometheus surface: per-request stage
// accounting threaded through the request context, an endpoint x status
// request counter, fixed-bucket stage histograms, and the text
// exposition renderer behind GET /metrics. Everything is stdlib - the
// exposition format is simple enough that a client library would be
// mostly ceremony - and everything is observational: no handler
// behaviour depends on a metric.

// reqStats accumulates one request's stage decomposition as it flows
// through the handlers: time spent waiting for a simulation slot
// (queue), time spent simulating (simulate), and - derived by the
// middleware as the remainder - rendering/transfer time. A sweep fans
// cells out to goroutines sharing one reqStats, hence the atomics; the
// summed queue/simulate time of parallel cells can legitimately exceed
// the request's wall time (the render remainder clamps at zero).
type reqStats struct {
	queueNS atomic.Int64
	simNS   atomic.Int64

	mu          sync.Mutex
	fingerprint string // content address of the job/sweep, for the access log
}

func (rs *reqStats) addQueue(d time.Duration) {
	if rs != nil {
		rs.queueNS.Add(d.Nanoseconds())
	}
}

func (rs *reqStats) addSim(ns int64) {
	if rs != nil {
		rs.simNS.Add(ns)
	}
}

func (rs *reqStats) setFingerprint(id string) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.fingerprint = id
	rs.mu.Unlock()
}

func (rs *reqStats) getFingerprint() string {
	if rs == nil {
		return ""
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.fingerprint
}

// reqStatsKey carries the reqStats through the request context, so the
// simulation path (cellResult) can attribute stage time without every
// call site threading an extra parameter.
type reqStatsKey struct{}

func withReqStats(ctx context.Context, rs *reqStats) context.Context {
	return context.WithValue(ctx, reqStatsKey{}, rs)
}

// reqStatsFrom returns the request's reqStats, or nil when the context
// does not carry one (direct Server method calls in tests); the
// reqStats methods are nil-safe for exactly that case.
func reqStatsFrom(ctx context.Context) *reqStats {
	rs, _ := ctx.Value(reqStatsKey{}).(*reqStats)
	return rs
}

// reqKey labels one requests-counter cell.
type reqKey struct {
	endpoint string // the matched mux pattern, e.g. "POST /v1/jobs"
	code     string // HTTP status, e.g. "200"
}

// stageBuckets are the histogram upper bounds in seconds, spanning a
// cache hit (sub-millisecond) to a request-budget-sized simulation.
var stageBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// numStageBuckets sizes the histogram's count array: one cell per
// finite bucket plus +Inf.
const numStageBuckets = 7

// histogram is a fixed-bucket Prometheus histogram: cumulative bucket
// counts plus sum and count. Callers hold httpMetrics.mu.
type histogram struct {
	counts [numStageBuckets + 1]int64 // one per bucket, last is +Inf
	sum    float64
	count  int64
}

func (h *histogram) observe(v float64) {
	for i, ub := range stageBuckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.counts[len(h.counts)-1]++ // +Inf
	h.sum += v
	h.count++
}

// httpMetrics aggregates the per-request observations: request counts
// by (endpoint, status) and stage-latency histograms. One per Server.
type httpMetrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[reqKey]int64
	stages   map[string]*histogram // stage name -> histogram
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{
		start:    time.Now(),
		requests: make(map[reqKey]int64),
		stages:   make(map[string]*histogram),
	}
}

// observe records one finished request: its counter cell and the three
// stage durations.
func (m *httpMetrics) observe(endpoint, code string, queue, simulate, render time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"queue", queue}, {"simulate", simulate}, {"render", render}} {
		h := m.stages[s.name]
		if h == nil {
			h = &histogram{}
			m.stages[s.name] = h
		}
		h.observe(s.d.Seconds())
	}
}

// uptime is the service's age.
func (m *httpMetrics) uptime() time.Duration { return time.Since(m.start) }

// requestCounts snapshots the counter as endpoint -> code -> count, the
// shape /v1/stats reports (the same numbers /metrics exposes as
// epiphany_http_requests_total).
func (m *httpMetrics) requestCounts() map[string]map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.requests) == 0 {
		return nil
	}
	out := make(map[string]map[string]int64)
	for k, n := range m.requests {
		byCode := out[k.endpoint]
		if byCode == nil {
			byCode = make(map[string]int64)
			out[k.endpoint] = byCode
		}
		byCode[k.code] = n
	}
	return out
}

// ---- Prometheus text exposition ----

// promFloat renders a float the way Prometheus clients do: shortest
// exact decimal, no exponent for the magnitudes these metrics take.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writeMetric emits one # HELP / # TYPE header pair.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// render writes the full exposition: the Server's counters (from the
// same Stats snapshot /v1/stats serves), the request counter, and the
// stage histograms. Label sets are emitted in sorted order so the
// output is deterministic for a given state.
func (m *httpMetrics) render(w io.Writer, st Stats) {
	writeHeader(w, "epiphany_uptime_seconds", "Seconds since the service started.", "gauge")
	fmt.Fprintf(w, "epiphany_uptime_seconds %s\n", promFloat(m.uptime().Seconds()))

	writeHeader(w, "epiphany_cache_entries", "Result-cache entries in memory.", "gauge")
	fmt.Fprintf(w, "epiphany_cache_entries %d\n", st.CacheEntries)
	writeHeader(w, "epiphany_cache_hits_total", "Result-cache hits (job and sweep-cell lookups).", "counter")
	fmt.Fprintf(w, "epiphany_cache_hits_total %d\n", st.CacheHits)
	writeHeader(w, "epiphany_cache_misses_total", "Result-cache misses (each cost a simulation).", "counter")
	fmt.Fprintf(w, "epiphany_cache_misses_total %d\n", st.CacheMisses)
	writeHeader(w, "epiphany_cache_version_misses_total", "Persisted cache entries rejected for a stale engine version.", "counter")
	fmt.Fprintf(w, "epiphany_cache_version_misses_total %d\n", st.CacheVersionMisses)

	writeHeader(w, "epiphany_queue_depth", "Simulation-bearing requests admitted right now (queued plus running).", "gauge")
	fmt.Fprintf(w, "epiphany_queue_depth %d\n", st.QueueDepth)
	writeHeader(w, "epiphany_queue_capacity", "Admission-queue capacity (503 threshold).", "gauge")
	fmt.Fprintf(w, "epiphany_queue_capacity %d\n", st.QueueCapacity)
	writeHeader(w, "epiphany_in_flight", "Simulations executing right now.", "gauge")
	fmt.Fprintf(w, "epiphany_in_flight %d\n", st.InFlight)

	writeHeader(w, "epiphany_boards_built_total", "Boards built fresh for simulations (the pool held none of the topology).", "counter")
	fmt.Fprintf(w, "epiphany_boards_built_total %d\n", st.BoardsBuilt)
	writeHeader(w, "epiphany_boards_reused_total", "Boards recycled from the idle pool for simulations.", "counter")
	fmt.Fprintf(w, "epiphany_boards_reused_total %d\n", st.BoardsReused)

	writeHeader(w, "epiphany_simulated_wall_seconds_total", "Cumulative host wall time spent simulating.", "counter")
	fmt.Fprintf(w, "epiphany_simulated_wall_seconds_total %s\n", promFloat(float64(st.SimulatedWallNS)/1e9))
	writeHeader(w, "epiphany_served_wall_seconds_total", "Cumulative wall time cache hits saved re-simulating.", "counter")
	fmt.Fprintf(w, "epiphany_served_wall_seconds_total %s\n", promFloat(float64(st.ServedWallNS)/1e9))

	writeHeader(w, "epiphany_draining", "1 once Drain has been called, else 0.", "gauge")
	draining := 0
	if st.Draining {
		draining = 1
	}
	fmt.Fprintf(w, "epiphany_draining %d\n", draining)

	m.mu.Lock()
	defer m.mu.Unlock()

	writeHeader(w, "epiphany_http_requests_total", "Requests served, by matched route and status code.", "counter")
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "epiphany_http_requests_total{endpoint=%q,code=%q} %d\n",
			promEscape(k.endpoint), promEscape(k.code), m.requests[k])
	}

	writeHeader(w, "epiphany_request_stage_seconds",
		"Request time by stage: queue (waiting for a simulation slot), simulate (running cells), render (everything else).",
		"histogram")
	stageNames := make([]string, 0, len(m.stages))
	for name := range m.stages {
		stageNames = append(stageNames, name)
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		h := m.stages[name]
		for i, ub := range stageBuckets {
			fmt.Fprintf(w, "epiphany_request_stage_seconds_bucket{stage=%q,le=%q} %d\n",
				name, promFloat(ub), h.counts[i])
		}
		fmt.Fprintf(w, "epiphany_request_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n",
			name, h.counts[len(h.counts)-1])
		fmt.Fprintf(w, "epiphany_request_stage_seconds_sum{stage=%q} %s\n", name, promFloat(h.sum))
		fmt.Fprintf(w, "epiphany_request_stage_seconds_count{stage=%q} %d\n", name, h.count)
	}
}
