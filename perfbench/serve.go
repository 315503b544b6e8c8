package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"

	"epiphany"
)

// serveConn is an in-process epiphany-serve handler on a loopback
// listener with a keep-alive client.
type serveConn struct {
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

// startServer boots the service on 127.0.0.1 with at most conns client
// connections.
func startServer(cfg epiphany.ServerConfig, conns int) (*serveConn, error) {
	srv, err := epiphany.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &serveConn{
		hs:   &http.Server{Handler: srv},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	go func() { c.done <- c.hs.Serve(ln) }()
	return c, nil
}

// close stops the server and waits for it to exit.
func (c *serveConn) close() {
	c.client.CloseIdleConnections()
	c.hs.Shutdown(context.Background())
	<-c.done
}

// reply is one HTTP response, read whole.
type reply struct {
	status int
	cache  string // X-Epiphany-Cache: hit or miss
	body   []byte
}

func (c *serveConn) roundTrip(ctx context.Context, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Epiphany-Cache"), body: b}, nil
}

// submit posts one job and checks the reply: status 200, the expected
// cache status, and simulated metrics equal to the job's reference.
func (c *serveConn) submit(ctx context.Context, j *job, seed uint64, want string, tr *tracer, tid, parent int) (reply, error) {
	body, err := json.Marshal(epiphany.ServeJobSpec{Workload: j.name, Topo: j.spec, Seed: &seed})
	if err != nil {
		return reply{}, err
	}
	sp := tr.begin(tid, "serve", "POST /v1/jobs "+want+" "+j.name+"@"+j.spec, parent)
	r, err := c.roundTrip(ctx, "POST", "/v1/jobs", body)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", j, r.status, bytes.TrimSpace(r.body))
	}
	if r.cache != want {
		return r, fmt.Errorf("%s: cache %q, want %q", j, r.cache, want)
	}
	if want == "hit" {
		return r, nil // the caller compares the bytes with the filling miss
	}
	var resp epiphany.ServeJobResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return r, fmt.Errorf("%s: decoding reply: %w", j, err)
	}
	if resp.Result.Err != "" {
		return r, fmt.Errorf("%s: %s", j, resp.Result.Err)
	}
	return r, j.checkMetrics(resp.Result.Metrics)
}

// serveSnapshot is the service counters the ledger differences.
type serveSnapshot struct {
	hits, misses int64
	stageSum     map[string]float64 // seconds, by request stage
	stageCount   map[string]float64
}

// snapshot reads /v1/stats and the stage histograms from /metrics.
func (c *serveConn) snapshot(ctx context.Context, tr *tracer, parent int) (serveSnapshot, error) {
	s := serveSnapshot{stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	sp := tr.begin(tidLedger, "serve", "GET /v1/stats", parent)
	r, err := c.roundTrip(ctx, "GET", "/v1/stats", nil)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	var st epiphany.ServerStats
	if err := json.Unmarshal(r.body, &st); err != nil {
		return s, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	s.hits, s.misses = st.CacheHits, st.CacheMisses

	sp = tr.begin(tidLedger, "serve", "GET /metrics", parent)
	r, err = c.roundTrip(ctx, "GET", "/metrics", nil)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		for suffix, into := range map[string]map[string]float64{"_sum": s.stageSum, "_count": s.stageCount} {
			rest, ok := strings.CutPrefix(line, "epiphany_request_stage_seconds"+suffix+`{stage="`)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				return s, fmt.Errorf("unexpected /metrics line %q", line)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, fmt.Errorf("unexpected /metrics line %q: %w", line, err)
			}
			into[stage] = v
		}
	}
	if len(s.stageCount) == 0 {
		return s, errors.New("/metrics has no request-stage histograms")
	}
	return s, nil
}

// serveBench is the serve-mixed workload: closed-loop keep-alive
// clients POST /v1/jobs to an in-process server. Four requests in five
// repeat a seeded hot set the set-up filled, so they are cache hits; the
// fifth carries a fresh seed and misses.
type serveBench struct {
	conn    *serveConn
	hot     []hotCell
	miss    []*job
	streams []*serveStream
}

// hotCell is one hot-set job with the body of the miss that filled it.
type hotCell struct {
	j    *job
	body []byte
}

// Hot-set and miss mix of serve-mixed: every block of hotPerBlock +
// missPerBlock requests holds that many of each, in seeded order.
const (
	hotPerBlock  = 8
	missPerBlock = 2
)

// serveHot and serveMiss are serve-mixed's cells: workload x topology
// pairs over e16, e64 and cluster-2x2, covering all three kernel
// families. Hot cells get one seeded input each; misses cycle through
// their pairs with fresh seeds. The hot set is listed, and so filled,
// one topology at a time, so the fill builds three boards rather than
// twelve.
var (
	serveHot = []string{
		"stencil-tuned@e16", "matmul-cannon@e16", "stream-stencil@e16", "stencil-direct@e16",
		"stencil-tuned@e64", "matmul-cannon@e64", "stream-stencil@e64", "stencil-direct@e64",
		"stencil-tuned@cluster-2x2", "matmul-cannon@cluster-2x2", "stream-stencil@cluster-2x2", "stencil-direct@cluster-2x2",
	}
	serveMiss = []string{
		"stencil-tuned@e16", "matmul-summa@e64", "stream-stencil@cluster-2x2",
		"stencil-naive@cluster-2x2", "matmul-offchip@cluster-2x2", "stream-stencil-deep@e64",
	}
)

// serveRequest is one request of a serve-mixed stream: a hot cell, or a
// miss pair with a fresh seed.
type serveRequest struct {
	hot  int // index into the hot set, or -1
	miss int // index into the miss pairs when hot is -1
	seed uint64
}

// serveStream is one client's seeded request sequence.
type serveStream struct {
	rng      *rand.Rand
	block    *stream // hot (0) and miss (1) slots of each block
	hotOrder *stream // rotation through the hot set
	nextMiss int
	nMiss    int
}

func newServeStream(seed uint64, client, nHot, nMiss int) *serveStream {
	slots := make([]int, 0, hotPerBlock+missPerBlock)
	for range hotPerBlock {
		slots = append(slots, 0)
	}
	for range missPerBlock {
		slots = append(slots, 1)
	}
	return &serveStream{
		rng:      rand.New(rand.NewPCG(seed, uint64(client)+1<<32)),
		block:    newStream(seed^0x5e77e, client, slots),
		hotOrder: newStream(seed^0x407, client, indices(nHot)),
		nextMiss: client * nMiss / 2,
		nMiss:    nMiss,
	}
}

func (s *serveStream) next() serveRequest {
	if s.block.next() == 0 {
		return serveRequest{hot: s.hotOrder.next()}
	}
	m := s.nextMiss % s.nMiss
	s.nextMiss++
	// Hot seeds stay below 2^32, so a fresh seed with the top bit set
	// never hits the hot set.
	return serveRequest{hot: -1, miss: m, seed: s.rng.Uint64() | 1<<63}
}

// pairJobs builds one job per "workload@topo" pair, each with a seed
// below 2^32 drawn from rng.
func pairJobs(pairs []string, rng *rand.Rand) ([]*job, error) {
	jobs := make([]*job, len(pairs))
	for i, p := range pairs {
		name, spec, _ := strings.Cut(p, "@")
		j, err := newJob(name, spec, uint64(rng.Uint32()), 1)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// serveJobs lists serve-mixed's hot-set jobs and miss pairs.
func serveJobs(seed uint64) (hot, miss []*job, err error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	if hot, err = pairJobs(serveHot, rng); err != nil {
		return nil, nil, err
	}
	miss, err = pairJobs(serveMiss, rng)
	return hot, miss, err
}

// setupServeMixed computes the references, boots the server and fills
// the hot set.
func setupServeMixed(ctx context.Context, seed uint64, tr *tracer, parent int) (bench, error) {
	hotJobs, miss, err := serveJobs(seed)
	if err != nil {
		return nil, err
	}
	if err := references(ctx, append(append([]*job{}, hotJobs...), miss...), tr, parent); err != nil {
		return nil, err
	}
	clients := twoClients()
	conn, err := startServer(epiphany.ServerConfig{Workers: nproc()}, clients)
	if err != nil {
		return nil, err
	}
	d := &serveBench{conn: conn, miss: miss}
	for _, j := range hotJobs {
		r, err := conn.submit(ctx, j, j.seed, "miss", tr, tidSetup, parent)
		if err != nil {
			conn.close()
			return nil, fmt.Errorf("filling the hot set: %w", err)
		}
		d.hot = append(d.hot, hotCell{j: j, body: r.body})
	}
	for c := range clients {
		d.streams = append(d.streams, newServeStream(seed, c, len(d.hot), len(miss)))
	}
	return d, nil
}

func (d *serveBench) do(ctx context.Context, client int, tr *tracer, parent int) error {
	req := d.streams[client].next()
	if req.hot < 0 {
		_, err := d.conn.submit(ctx, d.miss[req.miss], req.seed, "miss", tr, client, parent)
		return err
	}
	h := d.hot[req.hot]
	r, err := d.conn.submit(ctx, h.j, h.j.seed, "hit", tr, client, parent)
	if err != nil {
		return err
	}
	if !bytes.Equal(r.body, h.body) {
		return fmt.Errorf("%s: hit body differs from the miss that filled it", h.j)
	}
	return nil
}

func (d *serveBench) jobs() []*job { return d.miss }

func (d *serveBench) close() { d.conn.close() }
