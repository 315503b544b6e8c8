// Package serve implements simulation-as-a-service: a long-running
// HTTP/JSON daemon over the simulator's deterministic core. Every
// simulation is a pure function of its canonical spec (workload x
// topology x c2c timing x power model x DVFS point x seed - pinned by
// the conformance and sweep goldens), so the service fronts the pooled
// workload.Runner with a content-addressed result cache keyed by
// sweep's canonical fingerprints: a repeated cell - the common case
// under shared multi-user traffic - costs a map lookup instead of a
// ~35 ms simulation, and the cached bytes are exactly the bytes the
// simulation would produce.
//
// The API (all under /v1):
//
//	POST /v1/jobs          submit one job      {"workload":..,"topo":..,"power":..,"dvfs":..,"seed":..}
//	GET  /v1/jobs/{id}     re-fetch a cached job result by fingerprint
//	POST /v1/sweeps        submit a sweep.Plan; ?format=json|csv|text|markdown|ndjson
//	GET  /v1/sweeps/{id}   re-render a submitted sweep by plan fingerprint
//	GET  /v1/workloads     registered workload names and spec keys
//	GET  /v1/topologies    preset topologies + the chip-grid grammar
//	GET  /v1/plans         registered sweep plans (POST one to /v1/sweeps)
//	GET  /v1/powermodels   power-model presets and their DVFS ladders
//	GET  /v1/stats         cache hit/miss counts, queue depth, in-flight jobs,
//	                       cumulative simulated-vs-served wall time, uptime,
//	                       per-endpoint request counts
//	GET  /v1/healthz       liveness (503 once draining)
//	GET  /metrics          the same counters in Prometheus text exposition
//	                       format, plus request-stage latency histograms
//
// Every topology in a request body - a job's "topo", a sweep's "topos"
// and "baseline" - is a topology-grammar string (system.ParseTopologySpec:
// "e64", "grid=4x4/chip=8x8", "cluster-2x2/c2c=40:600"), the
// same spelling the CLIs take; the daemon canonicalizes it before
// hashing, so alternate spellings of one board share cache entries.
//
// ?format=ndjson streams sweep rows as cells complete (one JSON object
// per line, grid order, derived columns included); the other formats
// render exactly the bytes epiphany.Sweep would. Submissions are
// admission-controlled by a bounded queue (full -> 503) and bounded
// worker concurrency; Drain flips the service into shutdown mode where
// new work is refused with 503 while everything in flight completes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"epiphany/internal/power"
	"epiphany/internal/sweep"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// Config tunes the service. The zero value is usable: GOMAXPROCS
// simulation workers, a 64-request queue, 4096 cached results in
// memory, no disk persistence, two-minute request budget.
type Config struct {
	// Workers caps concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth caps simulation-bearing requests admitted at once
	// (queued plus running); submissions past it get 503. Requests
	// answered entirely from cache bypass the queue. <= 0 means 64.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (LRU past it);
	// <= 0 means 4096.
	CacheEntries int
	// CacheDir, when non-empty, persists every cached result as a JSON
	// file named by its fingerprint, and consults the directory on
	// memory misses - a restarted daemon keeps its corpus warm. The
	// directory is unbounded (results are small and content-addressed;
	// prune it externally if needed).
	CacheDir string
	// RequestTimeout bounds each request's simulation work; <= 0 means
	// two minutes. A request that exceeds it gets 504 (simulations
	// already in flight run to their next cancellation point).
	RequestTimeout time.Duration
	// SimWorkers is accepted and ignored.
	//
	// Deprecated: every board runs on one event heap; Workers is the
	// service's only simulation parallelism.
	SimWorkers int
	// Logger, when non-nil, receives one structured access-log line per
	// request: method, matched route, status, stage durations, and the
	// content address (job or sweep fingerprint) the request resolved
	// to. Nil disables access logging; metrics are collected either way.
	Logger *slog.Logger
}

// withDefaults resolves the zero knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	return c
}

// sweepIDCacheEntries bounds the remembered plans behind
// GET /v1/sweeps/{id}; a plan is a few hundred bytes of spec.
const sweepIDCacheEntries = 256

// Server is the simulation service: an http.Handler wiring the REST
// surface to the pooled Runner through the content-addressed cache.
// Create with NewServer; safe for concurrent use.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	runner *workload.Runner
	cache  *resultCache
	sweeps *lru[sweep.Plan]
	queue  chan struct{} // admission slots for simulation-bearing requests
	work   chan struct{} // concurrency slots for individual simulations

	metrics *httpMetrics
	logger  *slog.Logger

	draining atomic.Bool
	hits     atomic.Int64
	misses   atomic.Int64
	inFlight atomic.Int64
	simNS    atomic.Int64 // wall time spent simulating (cache misses)
	servedNS atomic.Int64 // wall time cache hits would have re-simulated
}

// Stats is the /v1/stats payload.
type Stats struct {
	// CacheEntries / CacheHits / CacheMisses describe the result cache:
	// in-memory entries right now, and the cumulative hit/miss counts of
	// job and sweep-cell lookups.
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// EngineVersion is the golden-surface generation this daemon
	// simulates (serve.EngineVersion); CacheVersionMisses counts
	// persisted entries rejected for carrying a different one.
	EngineVersion      string `json:"engine_version"`
	CacheVersionMisses int64  `json:"cache_version_misses"`
	// QueueDepth is the simulation-bearing requests currently admitted
	// (queued or running), QueueCapacity the 503 threshold.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// InFlight is the simulations executing right now.
	InFlight int64 `json:"in_flight"`
	// BoardsBuilt and BoardsReused count how simulations got their
	// boards from the Runner's pool: built fresh, or recycled from an
	// earlier job of the same topology (workload.Runner.Boards).
	BoardsBuilt  int64 `json:"boards_built"`
	BoardsReused int64 `json:"boards_reused"`
	// SimulatedWallNS is cumulative host wall time spent simulating;
	// ServedWallNS is the wall time cache hits saved (the sum of the
	// original simulation cost of every entry served). Their ratio is
	// the cache's leverage under the current traffic.
	SimulatedWallNS int64 `json:"simulated_wall_ns"`
	ServedWallNS    int64 `json:"served_wall_ns"`
	Draining        bool  `json:"draining"`
	// UptimeS is seconds since the daemon started.
	UptimeS float64 `json:"uptime_s"`
	// Requests counts served requests by matched route and status code
	// (endpoint -> code -> count), the same numbers GET /metrics exposes
	// as epiphany_http_requests_total. Omitted until the first request
	// completes.
	Requests map[string]map[string]int64 `json:"requests,omitempty"`
}

// JobSpec is the POST /v1/jobs request body: one cell of the
// experiment space, spelled the way the CLIs spell it.
type JobSpec struct {
	// Workload is a workload spec (workload.Parse): a registered name
	// ("matmul-cannon"), optionally with "/key=value" config overrides
	// ("matmul-cannon/m=32/n=32/k=32/g=2"). Required; see /v1/workloads
	// for the names and keys.
	Workload string `json:"workload"`
	// Topo is a topology-grammar spelling (system.ParseTopologySpec):
	// a preset ("e64"), an ad-hoc mesh ("4x8"), a parameterized chip
	// grid ("grid=4x4/chip=8x8", "cluster-4x4", "e64x16"), any with an
	// optional "/c2c=BYTE:HOP" override. Empty means e64, the library
	// default.
	Topo string `json:"topo,omitempty"`
	// Power and DVFS select the energy axis (power-model preset and
	// operating point); empty runs time-domain only.
	Power string `json:"power,omitempty"`
	DVFS  string `json:"dvfs,omitempty"`
	// Seed rebases the workload's deterministic inputs; nil keeps the
	// registered default seed.
	Seed *uint64 `json:"seed,omitempty"`
}

// JobResponse is the POST /v1/jobs and GET /v1/jobs/{id} body. It is
// deterministic: a cache hit returns byte-identical JSON to the miss
// that populated it (cache status travels in the X-Epiphany-Cache
// header, never the body).
type JobResponse struct {
	// ID is the job's content address (the canonical-spec SHA-256);
	// GET /v1/jobs/{ID} re-fetches this result while it stays cached.
	ID string `json:"id"`
	// Cell is the canonicalized spec the job resolved to.
	Cell sweep.Cell `json:"cell"`
	// Power is the power model the cell was metered under, if any.
	Power string `json:"power,omitempty"`
	// Result is the cell's result; Speedup/Efficiency stay zero (they
	// are grid-relative columns and a single job has no baseline).
	Result sweep.CellResult `json:"result"`
}

// NewServer builds the service. The error is the persistence
// directory's, when one is configured and cannot be created.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := newResultCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		runner:  &workload.Runner{Workers: cfg.Workers},
		cache:   cache,
		sweeps:  newLRU[sweep.Plan](sweepIDCacheEntries),
		queue:   make(chan struct{}, cfg.QueueDepth),
		work:    make(chan struct{}, cfg.Workers),
		metrics: newHTTPMetrics(),
		logger:  cfg.Logger,
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /v1/plans", s.handlePlans)
	s.mux.HandleFunc("GET /v1/powermodels", s.handlePowerModels)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// statusWriter captures the response status for the request metrics and
// access log. It always satisfies http.Flusher - streamSweep's ndjson
// path asserts for it - delegating when the underlying writer can
// flush and no-opping otherwise.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler: every request runs through the
// observability middleware - a reqStats in the context collects the
// queue and simulate stage times as the handlers run, the remainder is
// attributed to render - then lands in the matched route's counter and
// the stage histograms, and emits one access-log line when the server
// has a logger.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rs := &reqStats{}
	r = r.WithContext(withReqStats(r.Context(), rs))
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)

	// The mux sets r.Pattern on match (it mutates the request we passed,
	// so the middleware sees it); an unmatched request keeps its own
	// label rather than exploding counter cardinality with raw paths.
	endpoint := r.Pattern
	if endpoint == "" {
		endpoint = "unmatched"
	}
	code := sw.code
	if code == 0 {
		code = http.StatusOK // handler never wrote; Go sends 200
	}
	total := time.Since(start)
	queue := time.Duration(rs.queueNS.Load())
	simulate := time.Duration(rs.simNS.Load())
	// Render is the remainder. Parallel sweep cells can accumulate more
	// queue+simulate time than the request's wall clock, so clamp.
	render := max(total-queue-simulate, 0)
	s.metrics.observe(endpoint, strconv.Itoa(code), queue, simulate, render)
	if s.logger != nil {
		attrs := []any{
			"method", r.Method,
			"route", endpoint,
			"path", r.URL.Path,
			"status", code,
			"total", total,
			"queue", queue,
			"simulate", simulate,
		}
		if id := rs.getFingerprint(); id != "" {
			attrs = append(attrs, "id", id)
		}
		s.logger.Info("request", attrs...)
	}
}

// Drain flips the service into shutdown mode: job and sweep
// submissions are refused with 503 (read endpoints keep answering, so
// load balancers see /v1/healthz fail while clients can still collect
// results), while admitted work runs to completion. Call it before
// http.Server.Shutdown, which then waits out the in-flight requests.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	boards := s.runner.Boards()
	return Stats{
		CacheEntries:       s.cache.len(),
		CacheHits:          s.hits.Load(),
		CacheMisses:        s.misses.Load(),
		EngineVersion:      EngineVersion,
		CacheVersionMisses: s.cache.versionMisses(),
		QueueDepth:         len(s.queue),
		QueueCapacity:      s.cfg.QueueDepth,
		InFlight:           s.inFlight.Load(),
		BoardsBuilt:        boards.Built,
		BoardsReused:       boards.Reused,
		SimulatedWallNS:    s.simNS.Load(),
		ServedWallNS:       s.servedNS.Load(),
		Draining:           s.draining.Load(),
		UptimeS:            s.metrics.uptime().Seconds(),
		Requests:           s.metrics.requestCounts(),
	}
}

// admit takes a queue slot for one simulation-bearing request,
// reporting false when the service is draining or the queue is full.
func (s *Server) admit() bool {
	if s.draining.Load() {
		return false
	}
	select {
	case s.queue <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns an admit slot.
func (s *Server) release() { <-s.queue }

// ---- jobs ----

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeUnavailable(w, "server is draining")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("epiphany: bad job spec: %w", err))
		return
	}
	plan, cell, err := spec.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := plan.CellFingerprint(cell)
	reqStatsFrom(r.Context()).setFingerprint(id)

	if e, ok := s.cache.get(id); ok {
		s.hits.Add(1)
		s.servedNS.Add(e.SimNS)
		writeJob(w, id, e, "hit")
		return
	}
	if !s.admit() {
		writeUnavailable(w, "job queue is full")
		return
	}
	defer s.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	res, hit := s.cellResult(ctx, plan, cell, id)
	if res.Err != "" {
		if err := ctx.Err(); err != nil {
			writeTimeout(w, err)
			return
		}
		// A deterministic per-job failure (validation, run error): the
		// spec is the problem, so the client gets it back as an
		// unprocessable entity, uncached.
		writeError(w, http.StatusUnprocessableEntity, errors.New(res.Err))
		return
	}
	status := "miss"
	if hit {
		status = "hit" // a concurrent request filled the cache first
	}
	writeJob(w, id, entry{Cell: cell, Power: plan.Power, Result: res}, status)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reqStatsFrom(r.Context()).setFingerprint(id)
	e, ok := s.cache.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("epiphany: no cached result under id %q", id))
		return
	}
	writeJob(w, id, e, "hit")
}

// resolve canonicalizes the spec into a normalized 1-cell plan.
func (spec JobSpec) resolve() (sweep.Plan, sweep.Cell, error) {
	if spec.Workload == "" {
		return sweep.Plan{}, sweep.Cell{}, errors.New(`epiphany: job spec needs a "workload" (see /v1/workloads)`)
	}
	p := sweep.Plan{Workloads: []string{spec.Workload}, Topos: []string{"e64"}, Power: spec.Power}
	if spec.Topo != "" {
		p.Topos = []string{spec.Topo}
	}
	if spec.DVFS != "" {
		p.DVFS = []string{spec.DVFS}
	}
	if spec.Seed != nil {
		p.Seeds = []uint64{*spec.Seed}
	}
	p, err := p.Normalize()
	if err != nil {
		return p, sweep.Cell{}, err
	}
	return p, p.Expand()[0], nil
}

// cellResult produces the cell's result through the cache: a re-check
// (another request may have filled the entry since the caller's probe),
// then a simulation on the pooled runner under the worker bound, with
// the successful result stored under its fingerprint. The bool reports
// whether the result came from the cache.
func (s *Server) cellResult(ctx context.Context, p sweep.Plan, c sweep.Cell, id string) (sweep.CellResult, bool) {
	if e, ok := s.cache.get(id); ok {
		s.hits.Add(1)
		s.servedNS.Add(e.SimNS)
		return e.Result, true
	}
	s.misses.Add(1)
	rs := reqStatsFrom(ctx)
	qstart := time.Now()
	select {
	case s.work <- struct{}{}:
		rs.addQueue(time.Since(qstart))
	case <-ctx.Done():
		rs.addQueue(time.Since(qstart))
		return failedCell(c, ctx.Err()), false
	}
	defer func() { <-s.work }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	job, cores, err := p.CellJob(c)
	if err != nil {
		return failedCell(c, err), false
	}
	start := time.Now()
	jr := s.runner.RunJob(ctx, job)
	simNS := time.Since(start).Nanoseconds()
	s.simNS.Add(simNS)
	rs.addSim(simNS)
	res := sweep.NewCellResult(c, cores, jr)
	if res.Err == "" {
		s.cache.put(id, entry{Cell: c, Power: p.Power, Result: res, SimNS: simNS})
	}
	return res, false
}

// failedCell is the result row of a cell that never ran.
func failedCell(c sweep.Cell, err error) sweep.CellResult {
	return sweep.NewCellResult(c, 0, workload.JobResult{Err: err})
}

// ---- sweeps ----

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeUnavailable(w, "server is draining")
		return
	}
	var plan sweep.Plan
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&plan); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("epiphany: bad sweep plan: %w", err))
		return
	}
	n, err := plan.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := n.Fingerprint()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.sweeps.put(id, n)
	s.runSweep(w, r, n, id)
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, ok := s.sweeps.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("epiphany: no sweep under id %q (sweeps are remembered per daemon; POST the plan again)", id))
		return
	}
	if s.draining.Load() {
		// Re-rendering may need to re-simulate evicted cells; refuse
		// like any other work submission while draining.
		writeUnavailable(w, "server is draining")
		return
	}
	s.runSweep(w, r, n, id)
}

// runSweep executes the normalized plan's grid through the cache and
// renders it in the requested format. Every non-streaming format
// produces exactly the bytes epiphany.Sweep would for the same plan;
// ndjson streams one derived row per cell in grid order as cells
// complete.
func (s *Server) runSweep(w http.ResponseWriter, r *http.Request, n sweep.Plan, id string) {
	reqStatsFrom(r.Context()).setFingerprint(id)
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "text", "markdown", "md", "ndjson":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("epiphany: unknown format %q (json, csv, text, markdown, ndjson)", format))
		return
	}

	cells := n.Expand()
	ids := make([]string, len(cells))
	results := make([]sweep.CellResult, len(cells))
	ready := make([]chan struct{}, len(cells))
	var missIdx []int
	for i, c := range cells {
		ids[i] = n.CellFingerprint(c)
		ready[i] = make(chan struct{})
		if e, ok := s.cache.get(ids[i]); ok {
			s.hits.Add(1)
			s.servedNS.Add(e.SimNS)
			results[i] = e.Result
			close(ready[i])
		} else {
			missIdx = append(missIdx, i)
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if len(missIdx) > 0 {
		if !s.admit() {
			writeUnavailable(w, "job queue is full")
			return
		}
		defer s.release()
		for _, i := range missIdx {
			go func(i int) {
				defer close(ready[i])
				// cellResult re-probes, so a cell another request
				// finished since our probe is served, not re-simulated.
				results[i], _ = s.cellResult(ctx, n, cells[i], ids[i])
			}(i)
		}
	}

	w.Header().Set("X-Epiphany-Sweep-Id", id)
	if format == "ndjson" {
		s.streamSweep(ctx, w, n, cells, ids, results, ready)
		return
	}
	for i := range ready {
		select {
		case <-ready[i]:
		case <-ctx.Done():
			writeTimeout(w, ctx.Err())
			return
		}
	}
	res := &sweep.Result{Plan: n, Cells: results}
	res.Derive()
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		fmt.Fprint(w, res.CSV())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.Text())
	case "markdown", "md":
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		fmt.Fprint(w, res.Markdown())
	default: // json
		b, err := res.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(b)
	}
}

// sweepRow is one NDJSON line of a streamed sweep.
type sweepRow struct {
	// Index is the row's position in the plan's canonical expansion.
	Index int `json:"index"`
	// ID is the cell's content address (GET /v1/jobs/{id} re-fetches
	// it while cached).
	ID string `json:"id"`
	// Result carries the cell's metrics and derived columns, exactly
	// the values a whole-grid render would show.
	Result sweep.CellResult `json:"result"`
}

// sweepTrailer is the final NDJSON line: confirmation the stream is
// complete (or the error that cut it short).
type sweepTrailer struct {
	Done  bool   `json:"done"`
	Cells int    `json:"cells"`
	Error string `json:"error,omitempty"`
}

// streamSweep emits one row per cell in grid order, each as soon as
// the cell and its baseline cell are done. Rows carry the derived
// scaling columns, computed per cell against the same baseline a
// whole-grid Derive would use, so the streamed values match a csv/json
// render byte for byte (field for field); emission order is the
// canonical expansion order, so the stream as a whole is deterministic
// even though completion order is not.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, n sweep.Plan,
	cells []sweep.Cell, ids []string, results []sweep.CellResult, ready []chan struct{}) {

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Normalize guarantees the baseline topology is on the axis, so
	// every cell has a baseline row.
	baseOf := n.Baselines(cells)
	for i := range cells {
		wait := func(j int) bool {
			select {
			case <-ready[j]:
				return true
			case <-ctx.Done():
				return false
			}
		}
		b := baseOf[i]
		if !wait(i) || (b >= 0 && !wait(b)) {
			enc.Encode(sweepTrailer{Cells: i, Error: ctx.Err().Error()})
			return
		}
		row := sweepRow{Index: i, ID: ids[i], Result: results[i]}
		if b >= 0 {
			sweep.DeriveCell(&row.Result, &results[b])
		}
		if err := enc.Encode(row); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(sweepTrailer{Done: true, Cells: len(cells)})
}

// ---- listings, stats, health ----

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": workload.Names(), "keys": workload.KeyUsage()})
}

func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	type topoInfo struct {
		Name  string `json:"name"`
		Chips int    `json:"chips"`
		Rows  int    `json:"rows"`
		Cols  int    `json:"cols"`
		Cores int    `json:"cores"`
		Desc  string `json:"desc"`
	}
	var infos []topoInfo
	for _, t := range system.Topologies() {
		infos = append(infos, topoInfo{
			Name: t.Name, Chips: t.NumChips(),
			Rows: t.Rows(), Cols: t.Cols(), Cores: t.NumCores(),
			Desc: t.String(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"topologies": infos,
		"note":       `the full topology grammar is accepted wherever a preset is: ad-hoc meshes ("4x8"), chip grids ("grid=4x4/chip=8x8", "cluster-4x4", "e64x16"), and c2c overrides ("cluster-2x2/c2c=40:600"); the removed "/shards=N" engine partition is refused`,
	})
}

// handlePlans lists the registered named sweep plans; POST a listed
// plan's "plan" object to /v1/sweeps to run it.
func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"plans": sweep.Plans()})
}

func (s *Server) handlePowerModels(w http.ResponseWriter, _ *http.Request) {
	type modelInfo struct {
		Name    string   `json:"name"`
		Nominal string   `json:"nominal"`
		Points  []string `json:"points"`
	}
	var infos []modelInfo
	for _, name := range power.Models() {
		m, _ := power.ModelByName(name)
		points := make([]string, len(m.Points))
		for i, op := range m.Points {
			points[i] = op.String()
		}
		infos = append(infos, modelInfo{Name: name, Nominal: m.Nominal.String(), Points: points})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the Prometheus text exposition: the Stats
// counters plus the request counter and stage histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeUnavailable(w, "server is draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ---- response helpers ----

// writeJob renders a job body. The bytes are a pure function of the
// cached entry, so hit and miss responses are identical; only the
// X-Epiphany-Cache header tells them apart.
func writeJob(w http.ResponseWriter, id string, e entry, cacheStatus string) {
	w.Header().Set("X-Epiphany-Cache", cacheStatus)
	writeJSON(w, http.StatusOK, JobResponse{ID: id, Cell: e.Cell, Power: e.Power, Result: e.Result})
}

// writeJSON writes v indented (the API is curl-first) with a trailing
// newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError renders an error body: {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeUnavailable is the 503 every refused submission gets, with a
// Retry-After so well-behaved clients back off.
func writeUnavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, errors.New("epiphany: "+reason))
}

// writeTimeout maps a context error to its HTTP status: deadline
// exceeded is the server's per-request budget (504), cancellation is
// the client hanging up (no one is listening, but write 499-adjacent
// 503 for the log's sake).
func writeTimeout(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, errors.New("epiphany: request timed out"))
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}
