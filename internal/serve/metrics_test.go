package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one non-comment exposition line: metric name, an
// optional label set, and a number. The greedy \{.*\} tolerates braces
// and quotes inside label values.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestMetricsExposition drives a little traffic and checks GET /metrics
// renders well-formed Prometheus text carrying the expected counters.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Workload: "stencil-tuned", Topo: "e16"}
	wantStatus(t, do(t, s, "POST", "/v1/jobs", spec), http.StatusOK) // miss
	wantStatus(t, do(t, s, "POST", "/v1/jobs", spec), http.StatusOK) // hit
	wantStatus(t, do(t, s, "GET", "/no/such/route", nil), http.StatusNotFound)

	w := do(t, s, "GET", "/metrics", nil)
	wantStatus(t, w, http.StatusOK)
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	body := w.Body.String()

	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	for _, want := range []string{
		"epiphany_cache_hits_total 1\n",
		"epiphany_cache_misses_total 1\n",
		"epiphany_cache_entries 1\n",
		"epiphany_draining 0\n",
		"epiphany_boards_built_total 1\n",
		"epiphany_boards_reused_total 0\n",
		`epiphany_http_requests_total{endpoint="POST /v1/jobs",code="200"} 2` + "\n",
		`epiphany_http_requests_total{endpoint="unmatched",code="404"} 1` + "\n",
		`epiphany_request_stage_seconds_bucket{stage="simulate",le="+Inf"} 3` + "\n",
		`epiphany_request_stage_seconds_count{stage="queue"} 3` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}

	// The miss simulated for real, so the simulate-stage histogram sum
	// must be positive.
	sumLine := regexp.MustCompile(`epiphany_request_stage_seconds_sum\{stage="simulate"\} ([0-9.]+)`)
	mm := sumLine.FindStringSubmatch(body)
	if mm == nil {
		t.Fatalf("no simulate-stage sum in exposition\n%s", body)
	}
	if mm[1] == "0" {
		t.Errorf("simulate-stage sum is zero after a cache miss")
	}
}

// TestStatsUptimeAndRequests checks /v1/stats carries the uptime and the
// per-endpoint request counts, sourced from the same counters /metrics
// exposes.
func TestStatsUptimeAndRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	wantStatus(t, do(t, s, "GET", "/v1/healthz", nil), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/v1/workloads", nil), http.StatusOK)
	wantStatus(t, do(t, s, "GET", "/v1/workloads", nil), http.StatusOK)

	w := do(t, s, "GET", "/v1/stats", nil)
	wantStatus(t, w, http.StatusOK)
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeS <= 0 {
		t.Errorf("uptime_s = %v, want > 0", st.UptimeS)
	}
	if got := st.Requests["GET /v1/workloads"]["200"]; got != 2 {
		t.Errorf("requests[GET /v1/workloads][200] = %d, want 2 (have %v)", got, st.Requests)
	}
	if got := st.Requests["GET /v1/healthz"]["200"]; got != 1 {
		t.Errorf("requests[GET /v1/healthz][200] = %d, want 1", got)
	}
}

// TestStatsBoardCounters: two misses on one topology build one board
// and recycle it once; a hit simulates nothing. /v1/stats and /metrics
// report the same counts.
func TestStatsBoardCounters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, seed := range []uint64{1, 2, 2} {
		spec := JobSpec{Workload: "stencil-tuned", Topo: "e16", Seed: &seed}
		wantStatus(t, do(t, s, "POST", "/v1/jobs", spec), http.StatusOK)
	}
	w := do(t, s, "GET", "/v1/stats", nil)
	wantStatus(t, w, http.StatusOK)
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.BoardsBuilt != 1 || st.BoardsReused != 1 {
		t.Errorf("boards_built %d, boards_reused %d; want 1 and 1", st.BoardsBuilt, st.BoardsReused)
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	for _, want := range []string{"epiphany_boards_built_total 1\n", "epiphany_boards_reused_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAccessLog checks the configured slog logger receives one line per
// request carrying the matched route and the job's content address.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})

	first := do(t, s, "POST", "/v1/jobs", JobSpec{Workload: "stencil-tuned", Topo: "e16"})
	wantStatus(t, first, http.StatusOK)
	var resp JobResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	log := buf.String()
	if !strings.Contains(log, `route="POST /v1/jobs"`) {
		t.Errorf("access log missing route: %s", log)
	}
	if !strings.Contains(log, "status=200") {
		t.Errorf("access log missing status: %s", log)
	}
	if !strings.Contains(log, "id="+resp.ID) {
		t.Errorf("access log missing job fingerprint %s: %s", resp.ID, log)
	}
}
