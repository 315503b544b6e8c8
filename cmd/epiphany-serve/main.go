// Command epiphany-serve runs the simulator as a long-lived HTTP
// service: deterministic jobs and sweeps over the REST API, answered
// from a content-addressed result cache whenever the same canonical
// spec has been simulated before.
//
//	epiphany-serve -addr :8080 -cache-dir /var/cache/epiphany
//
//	curl -s localhost:8080/v1/workloads
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"workload":"stencil-tuned","topo":"e64"}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"workload":"stencil-tuned","topo":"grid=4x4/chip=8x8"}'
//	curl -s -X POST 'localhost:8080/v1/sweeps?format=ndjson' \
//	    -d '{"workloads":["stencil-tuned"],"topos":["e16","grid=2x2/chip=8x8"]}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"workload":"stencil-tuned","topo":"cluster-2x2/c2c=40:600"}'
//	curl -s localhost:8080/v1/plans
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503 (and
// /v1/healthz fails, so load balancers stop routing) while in-flight
// simulations finish, bounded by -grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"epiphany/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "max admitted simulation-bearing requests (0 = 64)")
		entries = flag.Int("cache-entries", 0, "in-memory result cache bound (0 = 4096)")
		dir     = flag.String("cache-dir", "", "persist cached results here (empty = memory only)")
		timeout = flag.Duration("timeout", 0, "per-request simulation budget (0 = 2m)")
		grace   = flag.Duration("grace", 30*time.Second, "shutdown drain budget")
		access  = flag.Bool("access-log", true, "log one structured line per request (route, status, stage times, result fingerprint)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "epiphany-serve: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var logger *slog.Logger
	if *access {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s, err := serve.NewServer(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *entries,
		CacheDir:       *dir,
		RequestTimeout: *timeout,
		Logger:         logger,
	})
	if err != nil {
		log.Fatalf("epiphany-serve: %v", err)
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("epiphany-serve: draining (new work gets 503, grace %s)", *grace)
		s.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("epiphany-serve: drain incomplete: %v", err)
			httpServer.Close()
		}
	}()

	log.Printf("epiphany-serve: listening on %s (cache-dir %q)", *addr, *dir)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("epiphany-serve: %v", err)
	}
	st := s.Stats()
	log.Printf("epiphany-serve: done; %d hits / %d misses, %s simulated, %s served from cache",
		st.CacheHits, st.CacheMisses,
		time.Duration(st.SimulatedWallNS), time.Duration(st.ServedWallNS))
}
