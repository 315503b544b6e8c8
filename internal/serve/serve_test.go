package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"epiphany/internal/sweep"
)

// testPlan is the small grid the service tests sweep: 2 workloads x 2
// topologies, 4 cells, a couple hundred milliseconds of simulation.
var testPlan = sweep.Plan{
	Workloads: []string{"stencil-tuned", "matmul-cannon"},
	Topos:     []string{"e16", "e64"},
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do drives the handler in process: no sockets, no goroutines.
func do(t *testing.T, s *Server, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func wantStatus(t *testing.T, w *httptest.ResponseRecorder, status int) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status %d, want %d; body: %s", w.Code, status, w.Body.String())
	}
}

// TestJobHitMissByteIdentity is the cache's core contract: the second
// submission of an identical job is served from the cache (header flips
// miss -> hit, stats count one of each) with a byte-identical body.
func TestJobHitMissByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Workload: "stencil-tuned", Topo: "e16"}

	first := do(t, s, "POST", "/v1/jobs", spec)
	wantStatus(t, first, http.StatusOK)
	if got := first.Header().Get("X-Epiphany-Cache"); got != "miss" {
		t.Errorf("first submission cache status %q, want miss", got)
	}

	second := do(t, s, "POST", "/v1/jobs", spec)
	wantStatus(t, second, http.StatusOK)
	if got := second.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Errorf("second submission cache status %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("hit body differs from miss body:\n%s\nvs\n%s", first.Body, second.Body)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Errorf("stats hits=%d misses=%d entries=%d, want 1/1/1", st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	if st.SimulatedWallNS <= 0 || st.ServedWallNS <= 0 {
		t.Errorf("wall accounting sim=%d served=%d, want both positive", st.SimulatedWallNS, st.ServedWallNS)
	}

	// The job is re-fetchable by its content address, same bytes again.
	var resp JobResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	got := do(t, s, "GET", "/v1/jobs/"+resp.ID, nil)
	wantStatus(t, got, http.StatusOK)
	if !bytes.Equal(got.Body.Bytes(), first.Body.Bytes()) {
		t.Error("GET /v1/jobs/{id} body differs from the submission body")
	}

	// Unknown id is a 404, not an empty 200.
	wantStatus(t, do(t, s, "GET", "/v1/jobs/"+strings.Repeat("0", 64), nil), http.StatusNotFound)
}

// TestJobSeedAndDVFSAddress: the seed and the DVFS point are part of
// the content address - distinct specs must not collide.
func TestJobSeedAndDVFSAddress(t *testing.T) {
	s := newTestServer(t, Config{})
	seed := uint64(7)
	a := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	b := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16", Seed: &seed})
	c := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16",
		Power: "epiphany-iv-28nm", DVFS: "300@0.85"})
	for _, w := range []*httptest.ResponseRecorder{a, b, c} {
		wantStatus(t, w, http.StatusOK)
		if got := w.Header().Get("X-Epiphany-Cache"); got != "miss" {
			t.Fatalf("distinct spec served from cache (%q)", got)
		}
	}
	if st := s.Stats(); st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Errorf("stats misses=%d hits=%d, want 3/0", st.CacheMisses, st.CacheHits)
	}
}

// TestJobBadRequests: malformed and unknown specs get 400s with the
// library's suggestion-bearing messages, never a simulation.
func TestJobBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want string
	}{
		{"bad json", "{", "bad job spec"},
		{"unknown field", `{"wrkload":"x"}`, "unknown field"},
		{"missing workload", JobSpec{}, `needs a`},
		{"unknown workload", JobSpec{Workload: "stencil-tunned"}, `did you mean \"stencil-tuned\"`},
		{"unknown workload key", JobSpec{Workload: "stencil-tuned/rws=20"}, `did you mean \"rows\"`},
		{"malformed workload key", JobSpec{Workload: "stencil-tuned/group=8"}, "ROWSxCOLS"},
		{"unknown topology", JobSpec{Workload: "stencil-tuned", Topo: "e63"}, "unknown topology"},
		{"removed shards suffix", JobSpec{Workload: "stencil-tuned", Topo: "cluster-2x2/shards=1"},
			"the /shards= engine partition was removed; every board runs one event heap"},
		{"unknown power model", JobSpec{Workload: "stencil-tuned", Power: "epiphany-iv-28mn"}, "did you mean"},
		{"dvfs without power", JobSpec{Workload: "stencil-tuned", DVFS: "600@1.0"}, "power model"},
	}
	for _, tc := range cases {
		w := do(t, s, "POST", "/v1/jobs", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.name, w.Body.String(), tc.want)
		}
	}
	if st := s.Stats(); st.CacheMisses != 0 {
		t.Errorf("bad requests reached the simulator: %d misses", st.CacheMisses)
	}
}

// TestSweepMatchesLibrary: every non-streaming service format renders
// exactly the bytes the in-process sweep API produces for the same
// plan - cold (all misses) and warm (all hits).
func TestSweepMatchesLibrary(t *testing.T) {
	lib, err := sweep.Run(context.Background(), testPlan, 0)
	if err != nil {
		t.Fatal(err)
	}
	libJSON, err := lib.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"csv":      lib.CSV(),
		"text":     lib.Text(),
		"markdown": lib.Markdown(),
		"json":     string(libJSON),
	}

	s := newTestServer(t, Config{})
	for pass, label := range map[int]string{0: "cold", 1: "warm"} {
		for format, wantBody := range want {
			w := do(t, s, "POST", "/v1/sweeps?format="+format, testPlan)
			wantStatus(t, w, http.StatusOK)
			if got := w.Body.String(); got != wantBody {
				t.Errorf("%s %s render differs from library:\n got: %q\nwant: %q", label, format, got, wantBody)
			}
			if w.Header().Get("X-Epiphany-Sweep-Id") == "" {
				t.Errorf("%s %s: no sweep id header", label, format)
			}
		}
		_ = pass
	}

	// The warm passes hit every cell: only the first pass simulated.
	cells := int64(len(lib.Cells))
	if st := s.Stats(); st.CacheMisses != cells {
		t.Errorf("cache misses %d, want %d (one cold pass)", st.CacheMisses, cells)
	}

	// GET /v1/sweeps/{id} re-renders the same bytes.
	first := do(t, s, "POST", "/v1/sweeps?format=csv", testPlan)
	id := first.Header().Get("X-Epiphany-Sweep-Id")
	again := do(t, s, "GET", "/v1/sweeps/"+id+"?format=csv", nil)
	wantStatus(t, again, http.StatusOK)
	if again.Body.String() != want["csv"] {
		t.Error("GET /v1/sweeps/{id} render differs from POST render")
	}
	wantStatus(t, do(t, s, "GET", "/v1/sweeps/"+strings.Repeat("f", 64), nil), http.StatusNotFound)
}

// TestSweepNDJSON: the stream yields one row per cell in canonical grid
// order with derived columns equal to a whole-grid render, then a done
// trailer.
func TestSweepNDJSON(t *testing.T) {
	lib, err := sweep.Run(context.Background(), testPlan, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/sweeps?format=ndjson", testPlan)
	wantStatus(t, w, http.StatusOK)
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q", ct)
	}

	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Buffer(nil, 1<<20)
	var rows []sweepRow
	var trailer sweepTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row sweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad row %s: %v", line, err)
		}
		rows = append(rows, row)
	}
	if len(rows) != len(lib.Cells) {
		t.Fatalf("%d rows, want %d", len(rows), len(lib.Cells))
	}
	if !trailer.Done || trailer.Cells != len(lib.Cells) || trailer.Error != "" {
		t.Errorf("trailer %+v", trailer)
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d carries index %d - stream out of grid order", i, row.Index)
		}
		if len(row.ID) != 64 {
			t.Errorf("row %d id %q", i, row.ID)
		}
		got, err := json.Marshal(row.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(lib.Cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("row %d differs from library cell:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestSweepJobCacheSharing: a sweep's cells and individually submitted
// jobs share one content-addressed store.
func TestSweepJobCacheSharing(t *testing.T) {
	s := newTestServer(t, Config{})
	wantStatus(t, do(t, s, "POST", "/v1/sweeps?format=csv", testPlan), http.StatusOK)
	before := s.Stats()

	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	wantStatus(t, w, http.StatusOK)
	if got := w.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Errorf("job inside a swept grid was a cache %s", got)
	}
	after := s.Stats()
	if after.CacheMisses != before.CacheMisses {
		t.Error("job re-simulated a swept cell")
	}
}

// TestSweepBadRequests: plan and format validation.
func TestSweepBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/sweeps", `{"workloads":["no-such"]}`)
	wantStatus(t, w, http.StatusBadRequest)
	w = do(t, s, "POST", "/v1/sweeps?format=yaml", testPlan)
	wantStatus(t, w, http.StatusBadRequest)
	if !strings.Contains(w.Body.String(), "unknown format") {
		t.Errorf("body %q", w.Body.String())
	}
	wantStatus(t, do(t, s, "POST", "/v1/sweeps", "{"), http.StatusBadRequest)
}

// TestPersistence: a second daemon pointed at the first one's cache
// directory serves its corpus without re-simulating, byte-identically.
func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Workload: "stencil-tuned", Topo: "e16"}

	a := newTestServer(t, Config{CacheDir: dir})
	first := do(t, a, "POST", "/v1/jobs", spec)
	wantStatus(t, first, http.StatusOK)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted files %v (err %v), want exactly one", files, err)
	}

	b := newTestServer(t, Config{CacheDir: dir})
	second := do(t, b, "POST", "/v1/jobs", spec)
	wantStatus(t, second, http.StatusOK)
	if got := second.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Fatalf("restarted daemon missed its persisted corpus (%s)", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("disk-served body differs from the original")
	}
	if st := b.Stats(); st.CacheMisses != 0 {
		t.Errorf("restarted daemon simulated %d times", st.CacheMisses)
	}

	// A torn file is a miss, not an error.
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newTestServer(t, Config{CacheDir: dir})
	third := do(t, c, "POST", "/v1/jobs", spec)
	wantStatus(t, third, http.StatusOK)
	if got := third.Header().Get("X-Epiphany-Cache"); got != "miss" {
		t.Errorf("torn persisted file served as a %s", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("re-simulated body differs - determinism broken")
	}
}

// TestPersistenceVersionMismatch: a persisted corpus written under an
// older EngineVersion - e.g. before the schemeDouble rotation-handshake
// fix shifted the off-chip matmul goldens - must degrade to counted
// misses, be re-simulated on the current engine, and be overwritten in
// place, never served.
func TestPersistenceVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Workload: "stencil-tuned", Topo: "e16"}

	a := newTestServer(t, Config{CacheDir: dir})
	first := do(t, a, "POST", "/v1/jobs", spec)
	wantStatus(t, first, http.StatusOK)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted files %v (err %v), want exactly one", files, err)
	}

	// Rewrite the entry as a pre-versioning daemon would have written
	// it: same result, no (empty) engine field.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var stale map[string]json.RawMessage
	if err := json.Unmarshal(b, &stale); err != nil {
		t.Fatal(err)
	}
	delete(stale, "engine")
	b, err = json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	c := newTestServer(t, Config{CacheDir: dir})
	second := do(t, c, "POST", "/v1/jobs", spec)
	wantStatus(t, second, http.StatusOK)
	if got := second.Header().Get("X-Epiphany-Cache"); got != "miss" {
		t.Fatalf("stale-version entry served as a %s", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("re-simulated body differs - determinism broken")
	}
	st := c.Stats()
	if st.CacheVersionMisses != 1 {
		t.Errorf("cache_version_misses = %d, want 1", st.CacheVersionMisses)
	}
	if st.EngineVersion != EngineVersion {
		t.Errorf("stats engine_version %q, want %q", st.EngineVersion, EngineVersion)
	}

	// The miss rewrote the file at the current version: a third daemon
	// serves it from disk again.
	d := newTestServer(t, Config{CacheDir: dir})
	third := do(t, d, "POST", "/v1/jobs", spec)
	wantStatus(t, third, http.StatusOK)
	if got := third.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Errorf("rewritten entry missed (%s)", got)
	}
	if st := d.Stats(); st.CacheVersionMisses != 0 {
		t.Errorf("rewritten entry counted as version miss (%d)", st.CacheVersionMisses)
	}
}

// TestLRUBound: the in-memory cache never exceeds its entry bound.
func TestLRUBound(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 2})
	for i := uint64(1); i <= 4; i++ {
		seed := i
		wantStatus(t, do(t, s, "POST", "/v1/jobs",
			JobSpec{Workload: "stencil-tuned", Topo: "e16", Seed: &seed}), http.StatusOK)
	}
	st := s.Stats()
	if st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries, bound is 2", st.CacheEntries)
	}
	if st.CacheMisses != 4 {
		t.Errorf("misses %d, want 4", st.CacheMisses)
	}
}

// TestDrain: a draining server refuses submissions with 503 and fails
// health checks, but keeps answering reads.
func TestDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	first := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	wantStatus(t, first, http.StatusOK)
	var resp JobResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	wantStatus(t, do(t, s, "GET", "/v1/healthz", nil), http.StatusOK)
	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain()")
	}
	wantStatus(t, do(t, s, "GET", "/v1/healthz", nil), http.StatusServiceUnavailable)
	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	wantStatus(t, w, http.StatusServiceUnavailable)
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Error("503 without Retry-After")
	}
	wantStatus(t, do(t, s, "POST", "/v1/sweeps", testPlan), http.StatusServiceUnavailable)
	// Reads still work: collected results remain fetchable.
	wantStatus(t, do(t, s, "GET", "/v1/jobs/"+resp.ID, nil), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/v1/stats", nil), http.StatusOK)
}

// TestQueueFull: with every admission slot taken, a simulation-bearing
// request gets 503 while a cache hit still flows.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	spec := JobSpec{Workload: "stencil-tuned", Topo: "e16"}
	wantStatus(t, do(t, s, "POST", "/v1/jobs", spec), http.StatusOK)

	s.queue <- struct{}{} // occupy the only slot
	seed := uint64(99)
	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16", Seed: &seed})
	wantStatus(t, w, http.StatusServiceUnavailable)
	if !strings.Contains(w.Body.String(), "queue is full") {
		t.Errorf("body %q", w.Body.String())
	}
	if st := s.Stats(); st.QueueDepth != 1 || st.QueueCapacity != 1 {
		t.Errorf("queue stats %d/%d, want 1/1", st.QueueDepth, st.QueueCapacity)
	}
	// The cached cell bypasses the queue entirely.
	hit := do(t, s, "POST", "/v1/jobs", spec)
	wantStatus(t, hit, http.StatusOK)
	if got := hit.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Errorf("cache status %q", got)
	}
	<-s.queue
}

// TestRequestTimeout: a request whose budget is already spent gets 504
// and caches nothing.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	wantStatus(t, w, http.StatusGatewayTimeout)
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("timed-out request cached %d entries", st.CacheEntries)
	}
}

// TestListings: the discovery endpoints enumerate the registries.
func TestListings(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct{ path, want string }{
		{"/v1/workloads", `"stencil-tuned"`},
		{"/v1/topologies", `"cluster-2x2"`},
		{"/v1/powermodels", `"epiphany-iv-28nm"`},
		{"/v1/powermodels", `"600MHz@1.00V"`},
	} {
		w := do(t, s, "GET", tc.path, nil)
		wantStatus(t, w, http.StatusOK)
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s missing %s; body: %s", tc.path, tc.want, w.Body.String())
		}
	}
	// Method enforcement comes from the Go 1.22+ mux patterns.
	wantStatus(t, do(t, s, "GET", "/v1/jobs", nil), http.StatusMethodNotAllowed)
	wantStatus(t, do(t, s, "DELETE", "/v1/stats", nil), http.StatusMethodNotAllowed)
}

// TestStatsShape: the stats body is stable, grep-able JSON (the CI
// smoke test greps it), with every documented field present.
func TestStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	wantStatus(t, do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"}), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"}), http.StatusOK)
	w := do(t, s, "GET", "/v1/stats", nil)
	wantStatus(t, w, http.StatusOK)
	body := w.Body.String()
	for _, field := range []string{
		`"cache_entries": 1`, `"cache_hits": 1`, `"cache_misses": 1`,
		`"engine_version": "` + EngineVersion + `"`, `"cache_version_misses": 0`,
		`"queue_depth"`, `"queue_capacity"`, `"in_flight"`,
		`"simulated_wall_ns"`, `"served_wall_ns"`, `"draining": false`,
	} {
		if !strings.Contains(body, field) {
			t.Errorf("stats body missing %s:\n%s", field, body)
		}
	}
}

// TestJobGridTopoSpecs: the parameterized topology grammar flows into
// JobSpec.Topo - grid specs run, canonicalize inside the response
// cell, and near-miss spellings 400 with the library's "did you mean"
// suggestion rather than reaching the simulator.
func TestJobGridTopoSpecs(t *testing.T) {
	s := newTestServer(t, Config{})

	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "grid=2x2/chip=4x4"})
	wantStatus(t, w, http.StatusOK)
	var resp JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cell.Topo != "grid=2x2/chip=4x4" || resp.Result.Topology != resp.Cell.Topo {
		t.Errorf("cell topo %q, result topology %q; want both the canonical grid spec", resp.Cell.Topo, resp.Result.Topology)
	}
	// The grammar keeps alias boards distinct, but canonical spelling
	// means alternate spellings of the same spec share one cache entry.
	again := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "grid=+2x2/chip=4x4"})
	wantStatus(t, again, http.StatusOK)
	if got, want := again.Header().Get("X-Epiphany-Cache"), "hit"; got != want {
		t.Errorf("alternate spelling of the same grid: cache %q, want %q", got, want)
	}

	for _, tc := range []struct {
		name string
		topo string
		want string
	}{
		{"near-miss alias", "cluster4x4", `did you mean \"cluster-4x4\"`},
		{"near-miss preset", "e65", `did you mean \"e64\"`},
		{"address-space overflow", "grid=8x8/chip=8x8", "does not fit the 64x64 mesh"},
		{"zero dims", "grid=0x4/chip=4x4", "invalid topology"},
		{"malformed chip", "grid=4x4/chip=ax8", "ROWSxCOLS"},
	} {
		w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: tc.topo})
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.name, w.Body.String(), tc.want)
		}
	}
}

// TestJobWorkloadSpecs: JobSpec.Workload takes the workload spec
// grammar. Overrides run and come back canonical in the response cell,
// alternate spellings of one configuration share a cache entry, a spec
// restating its preset addresses the plain name's entry, and a config
// that parses but cannot run is a 422, not a 400.
func TestJobWorkloadSpecs(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "matmul-cannon/k=32/g=2/m=32/n=32", Topo: "e16"})
	wantStatus(t, w, http.StatusOK)
	var resp JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := "matmul-cannon/m=32/n=32/k=32/g=2"; resp.Cell.Workload != want || resp.Result.Workload != want {
		t.Errorf("cell workload %q, result %q; want both %q", resp.Cell.Workload, resp.Result.Workload, want)
	}
	if resp.Result.Cores != 4 {
		t.Errorf("g=2 job reports %d cores, want 4", resp.Result.Cores)
	}
	again := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "matmul-cannon/m=32/n=32/k=32/g=2/algo=cannon", Topo: "e16"})
	wantStatus(t, again, http.StatusOK)
	if got := again.Header().Get("X-Epiphany-Cache"); got != "hit" {
		t.Errorf("alternate spelling of one config: cache %q, want hit", got)
	}

	plain := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	restated := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned/rows=40", Topo: "e16"})
	wantStatus(t, restated, http.StatusOK)
	if got := restated.Header().Get("X-Epiphany-Cache"); got != "hit" || restated.Body.String() != plain.Body.String() {
		t.Errorf("preset-restating spec: cache %q, body identical %v; want a hit on the plain name's bytes",
			got, restated.Body.String() == plain.Body.String())
	}

	bad := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned/rows=0", Topo: "e16"})
	wantStatus(t, bad, http.StatusUnprocessableEntity)
	if !strings.Contains(bad.Body.String(), "non-positive stencil dimensions") {
		t.Errorf("invalid config 422 body: %s", bad.Body.String())
	}
}

// TestSweepSpecAxis: sweep plans spell every axis value as a topology
// grammar string - c2c overrides included - and
// the response carries the canonical spellings; the object form of an
// axis value and a near-miss spelling both 400, the latter with a
// suggestion.
func TestSweepSpecAxis(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/sweeps",
		`{"workloads":["stencil-tuned"],"topos":["e16","grid=+2x2/chip=4x4","cluster-2x2/c2c=40:600"]}`)
	wantStatus(t, w, http.StatusOK)
	var res sweep.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	want := []string{"e16", "cluster-2x2/c2c=40:600", "grid=2x2/chip=4x4"}
	if !slices.Equal(res.Plan.Topos, want) {
		t.Errorf("sweep axis %q, want the canonical spellings %q", res.Plan.Topos, want)
	}
	for i, c := range res.Cells {
		if c.Err != "" || c.Topology != want[i] {
			t.Errorf("cell %d: topology %q error %q, want %q", i, c.Topology, c.Err, want[i])
		}
	}

	w = do(t, s, "POST", "/v1/sweeps", `{"workloads":["stencil-tuned"],"topos":[{"preset":"e16"}]}`)
	wantStatus(t, w, http.StatusBadRequest)
	if !strings.Contains(w.Body.String(), "bad sweep plan") {
		t.Errorf("object-form topology 400 body: %s", w.Body.String())
	}

	bad := sweep.Plan{
		Workloads: []string{"stencil-tuned"},
		Topos:     []string{"cluster4x4"},
	}
	w = do(t, s, "POST", "/v1/sweeps", bad)
	wantStatus(t, w, http.StatusBadRequest)
	if !strings.Contains(w.Body.String(), `did you mean \"cluster-4x4\"`) {
		t.Errorf("near-miss spec 400 lacks suggestion: %s", w.Body.String())
	}
}

// TestPlansListing: /v1/plans lists the registered named plans with
// their grids, ready to POST to /v1/sweeps.
func TestPlansListing(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, "GET", "/v1/plans", nil)
	wantStatus(t, w, http.StatusOK)
	body := w.Body.String()
	for _, want := range []string{`"scaling-1024"`, `"grid=4x4/chip=8x8"`, `"baseline": "e16"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/plans missing %s:\n%s", want, body)
		}
	}
}
