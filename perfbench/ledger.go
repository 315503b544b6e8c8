package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"epiphany"
)

// ledgerReps is how many times the ledger times each distinct job on
// each path; it reports the median.
const ledgerReps = 3

// freshBoardBytes is how much more than a job's warm RunJob an op must
// allocate to count as having built a board: the smallest board holds a
// 32 MB shared DRAM.
const freshBoardBytes = 16 << 20

// perLayer lists the per-layer metrics of the traced run in report
// order. LEDGER.md gives each one's meaning and the end-to-end metric
// it should move.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"sim.resume_ns", "ns"},
		{"sim.event_ns", "ns"},
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_op", "count"},
		{"sim.cross_send_ns", "ns"},
		{"sim.barrier_rounds_per_op", "count"},
		{"sim.booking_parks_per_op", "count"},
		{"sim.cross_posts_per_op", "count"},
		{"sim.sys_share", "ratio"},
		{"sim.phase_a_share", "ratio"},
		{"sim.phase_b_share", "ratio"},
		{"sim.parallel_slowdown", "ratio"},
		{"noc.deliver_ns", "ns"},
		{"noc.deliver_c2c_ns", "ns"},
		{"noc.crossings_per_op", "count"},
		{"noc.cross_mb_per_op", "MB"},
		{"dma.chain_leg_ns", "ns"},
		{"dma.dram_leg_ns", "ns"},
		{"mem.load32_ns", "ns"},
		{"mem.store32_ns", "ns"},
		{"mem.sram_mb_per_op", "MB"},
		{"mem.dram_mb_per_op", "MB"},
	}
	for _, tp := range probeTopos {
		l = append(l,
			struct{ name, unit string }{"system.construct_ms." + tp.label, "ms"},
			struct{ name, unit string }{"system.construct_mb." + tp.label, "MB"},
			struct{ name, unit string }{"system.reset_ms." + tp.label, "ms"})
	}
	l = append(l, []struct{ name, unit string }{
		{"workload.overhead_ms_per_op", "ms"},
		{"workload.board_reuse_ratio", "ratio"},
		{"core.run_ms_per_op.stencil", "ms"},
		{"core.run_ms_per_op.matmul", "ms"},
		{"core.run_ms_per_op.stream", "ms"},
		{"serve.hit_ms_p50", "ms"},
		{"serve.miss_ms_p50", "ms"},
		{"serve.render_ms_per_req", "ms"},
		{"serve.queue_ms_per_req", "ms"},
		{"serve.simulate_ms_per_req", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
	}...)
	for _, layer := range cpuLayers {
		l = append(l, struct{ name, unit string }{"cpu_share." + layer, "ratio"})
	}
	return append(l, struct{ name, unit string }{"trace.overhead", "ratio"})
}()

// tally counts the correctness checks the ledger makes.
type tally struct {
	attempted, failed int64
	firstErr          error
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// runTraced sets the scenario up once, runs half the timed loop
// untraced and half traced under a CPU profile, then measures the
// per-layer ledger serially: every distinct job on a pristine board and
// through RunJob, a serve probe, and the standalone layer probes.
func runTraced(ctx context.Context, sc scenario, cfg config, w io.Writer) (result, error) {
	tr := newTracer()
	d, _, err := setUp(ctx, sc, cfg.seed, 1, tr)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	clients := sc.clients()
	half := cfg.dur / 2

	plain := runWindow(ctx, d, clients, half, nil)
	sd, isServe := d.(*serveBench)
	var before serveSnapshot
	if isServe {
		if before, err = sd.conn.snapshot(ctx, tr, 0); err != nil {
			return result{}, err
		}
	}
	prof := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-cpu.pprof", sc.name, cfg.seed))
	stop, err := startProfile(prof)
	if err != nil {
		return result{}, err
	}
	tracedFrom := tr.now()
	traced := runWindow(ctx, d, clients, half, tr)
	tracedTo := tr.now()
	if err := stop(); err != nil {
		return result{}, err
	}
	if plain.ops() == 0 || traced.ops() == 0 {
		return result{}, fmt.Errorf("no op completed (first error: %v)", cmp.Or(plain.firstErr, traced.firstErr))
	}

	var t tally
	ms := map[string]metric{}
	notes := map[string]string{}
	costs := measureJobs(ctx, d.jobs(), tr, &t)
	ledgerJobs(costs, ms, notes)
	slowdown(ctx, costs, tr, &t, ms, notes)

	probe, err := serveProbe(ctx, costs, tr, &t)
	if err != nil {
		return result{}, err
	}
	ms["workload.board_reuse_ratio"] = metric{1 - float64(probe.fresh)/float64(probe.requests), "ratio"}
	notes["workload.board_reuse_ratio"] = fmt.Sprintf("%d of %d serial requests recycled a board",
		probe.requests-probe.fresh, probe.requests)
	if isServe {
		// serve-mixed's serve layer is read off its own traffic.
		after, err := sd.conn.snapshot(ctx, tr, 0)
		if err != nil {
			return result{}, err
		}
		serveMetrics(ms, notes, before, after,
			tr.durations("POST /v1/jobs hit", tracedFrom, tracedTo), tr.durations("POST /v1/jobs miss", tracedFrom, tracedTo),
			"the traced window's traffic")
	} else {
		serveMetrics(ms, notes, probe.before, probe.after, probe.hit, probe.miss,
			"a serve probe of this workload's jobs")
	}

	pms, err := safeProbes(tr)
	t.note(err)
	for k, v := range pms {
		ms[k] = v
	}

	shares, err := cpuShares(prof)
	if err != nil {
		return result{}, err
	}
	for _, layer := range cpuLayers {
		ms["cpu_share."+layer] = metric{shares[layer], "ratio"}
	}
	notes["cpu_share.sim"] = fmt.Sprintf("flat samples of the traced window; other %.3f", shares["other"])
	ms["trace.overhead"] = metric{plain.opsPerS() / traced.opsPerS(), "ratio"}
	notes["trace.overhead"] = fmt.Sprintf("ops_per_s untraced %.6g / traced %.6g", plain.opsPerS(), traced.opsPerS())

	tracePath := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace.json", sc.name, cfg.seed))
	if err := tr.writePerfetto(tracePath, cfg.env); err != nil {
		return result{}, err
	}

	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	title := fmt.Sprintf("%s: per-layer ledger, seed %d, %v traced + %v untraced", sc.name, cfg.seed, half, half)
	printMetrics(w, title, names, ms, notes)
	accounting(w, tr.durations("RunJob", tracedFrom, tracedTo), costs, ms["trace.overhead"].Value)
	fmt.Fprintf(w, "  trace: %s\n  cpu profile: %s\n", tracePath, prof)

	res := result{
		Attempted: plain.attempted + traced.attempted + t.attempted,
		Failed:    plain.failed + traced.failed + t.failed,
		Metrics:   ms,
	}
	if err := cmp.Or(plain.firstErr, traced.firstErr, t.firstErr); err != nil {
		fmt.Fprintf(w, "  first failure: %v\n", err)
	}
	return res, nil
}

// jobCost is what the ledger measured for one distinct job.
type jobCost struct {
	j       *job
	run     time.Duration // Workload.Run on a pristine board
	runJob  time.Duration // RunJob on a warm Runner
	stats   epiphany.EngineStats
	metrics epiphany.Metrics
	sram    uint64 // SRAM bytes accessed
	dram    uint64 // shared-DRAM bytes accessed
	// warmAlloc is the least a RunJob of the job allocated on a Runner
	// whose pool already held a board for it.
	warmAlloc uint64
	measured  bool
}

// measureJobs times every job ledgerReps times on a pristine board
// (built once per topology, then recycled with Reset) and through
// RunJob on a Runner warmed to its topology, checking every result.
func measureJobs(ctx context.Context, jobs []*job, tr *tracer, t *tally) []jobCost {
	boards := map[string]*epiphany.System{}
	costs := make([]jobCost, len(jobs))
	for i, j := range jobs {
		c := &costs[i]
		c.j = j
		parent := tr.begin(tidLedger, "ledger", "job "+j.String(), 0)
		runs := make([]float64, 0, ledgerReps)
		for rep := range ledgerReps {
			sys := pristine(boards, j, tr, parent)
			res, d, err := runOn(ctx, j.fitted(), sys, j.workers, tr, tidLedger, parent)
			if err == nil {
				err = j.check(res)
			}
			t.note(err)
			if err != nil {
				delete(boards, j.spec) // a failed board may not be recyclable
				continue
			}
			runs = append(runs, float64(d))
			if rep == 0 {
				c.stats = sys.Engine().Stats()
				c.metrics = res.Metrics()
				ec := sys.EnergyCounters(c.metrics.Elapsed)
				c.sram, c.dram = ec.SRAMBytes, ec.DRAMBytes
			}
		}
		runner := &epiphany.Runner{Workers: 1, Options: []epiphany.Option{
			epiphany.WithTopology(j.topo), epiphany.WithWorkers(j.workers)}}
		jobRuns := make([]float64, 0, ledgerReps)
		c.warmAlloc = math.MaxUint64
		var ms0, ms1 runtime.MemStats
		for rep := range ledgerReps + 1 { // the first fills the Runner's pool
			sp := tr.begin(tidLedger, "workload", "RunJob "+j.name, parent)
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			jr := runner.RunJob(ctx, epiphany.Job{Workload: j.w})
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			tr.end(sp)
			err := jr.Err
			if err == nil {
				err = j.check(jr.Result)
			}
			t.note(err)
			if err == nil && rep > 0 {
				jobRuns = append(jobRuns, float64(d))
				c.warmAlloc = min(c.warmAlloc, ms1.TotalAlloc-ms0.TotalAlloc)
			}
		}
		tr.end(parent)
		if len(runs) > 0 && len(jobRuns) > 0 {
			c.run = time.Duration(median(runs))
			c.runJob = time.Duration(median(jobRuns))
			c.measured = true
		}
	}
	return costs
}

// pristine returns a board for j: the topology's board recycled with
// Reset, or a new one.
func pristine(boards map[string]*epiphany.System, j *job, tr *tracer, parent int) *epiphany.System {
	if sys, ok := boards[j.spec]; ok {
		sp := tr.begin(tidLedger, "system", "Reset "+j.spec, parent)
		err := sys.Reset()
		tr.end(sp)
		if err == nil {
			return sys
		}
	}
	sys := newBoard(j.topo, tr, tidLedger, parent)
	boards[j.spec] = sys
	return sys
}

// ledgerJobs folds the per-job costs into per-op metrics. Every job is
// an equal share of its workload's op stream, so a per-op figure is the
// mean over the jobs.
func ledgerJobs(costs []jobCost, ms map[string]metric, notes map[string]string) {
	var w, events, sysEvents, rounds, parks, posts, runNS, phaseA, phaseB float64
	var crossings, crossBytes, sram, dram, overhead float64
	famRun, famW := map[string]float64{}, map[string]float64{}
	for _, c := range costs {
		if !c.measured {
			continue
		}
		w++
		events += float64(c.stats.Events)
		sysEvents += float64(c.stats.SysEvents)
		rounds += float64(c.stats.BarrierRounds)
		parks += float64(c.stats.BookingParks)
		posts += float64(c.stats.CrossPosts)
		phaseA += float64(c.stats.PhaseAWallNS)
		phaseB += float64(c.stats.PhaseBWallNS)
		runNS += float64(c.run)
		crossings += float64(c.metrics.ELinkCrossings)
		crossBytes += float64(c.metrics.ELinkCrossBytes)
		sram += float64(c.sram)
		dram += float64(c.dram)
		overhead += float64(c.runJob - c.run)
		famRun[c.j.family] += float64(c.run)
		famW[c.j.family]++
	}
	if w == 0 {
		return
	}
	ms["sim.events_per_op"] = metric{events / w, "count"}
	ms["sim.ns_per_event"] = metric{runNS / events, "ns"}
	ms["sim.barrier_rounds_per_op"] = metric{rounds / w, "count"}
	ms["sim.booking_parks_per_op"] = metric{parks / w, "count"}
	ms["sim.cross_posts_per_op"] = metric{posts / w, "count"}
	ms["sim.sys_share"] = metric{sysEvents / events, "ratio"}
	// The phase times are a share of Workload.Run wall time, so a
	// sequential workload reads 0 rather than a time.
	ms["sim.phase_a_share"] = metric{phaseA / runNS, "ratio"}
	ms["sim.phase_b_share"] = metric{phaseB / runNS, "ratio"}
	notes["sim.phase_a_share"] = fmt.Sprintf("%.6g ms per op", phaseA/w/1e6)
	notes["sim.phase_b_share"] = fmt.Sprintf("%.6g ms per op", phaseB/w/1e6)
	if rounds == 0 {
		for _, n := range []string{"sim.barrier_rounds_per_op", "sim.booking_parks_per_op", "sim.phase_a_share", "sim.phase_b_share"} {
			notes[n] = "n/a: no job here runs the parallel scheduler"
		}
	}
	if posts == 0 {
		notes["sim.cross_posts_per_op"] = "n/a: single-shard jobs only"
	}
	ms["noc.crossings_per_op"] = metric{crossings / w, "count"}
	ms["noc.cross_mb_per_op"] = metric{crossBytes / w / 1e6, "MB"}
	if crossings == 0 {
		notes["noc.crossings_per_op"] = "n/a: single-chip boards only"
	}
	ms["mem.sram_mb_per_op"] = metric{sram / w / 1e6, "MB"}
	ms["mem.dram_mb_per_op"] = metric{dram / w / 1e6, "MB"}
	ms["workload.overhead_ms_per_op"] = metric{overhead / w / 1e6, "ms"}
	for _, fam := range []string{"stencil", "matmul", "stream"} {
		if famW[fam] > 0 {
			ms["core.run_ms_per_op."+fam] = metric{famRun[fam] / famW[fam] / 1e6, "ms"}
		}
	}
}

// slowdown times the job with the longest Workload.Run at nproc sim
// workers and at one, alternating, on a recycled pristine board.
func slowdown(ctx context.Context, costs []jobCost, tr *tracer, t *tally, ms map[string]metric, notes map[string]string) {
	var heavy *jobCost
	for i := range costs {
		if costs[i].measured && (heavy == nil || costs[i].run > heavy.run) {
			heavy = &costs[i]
		}
	}
	if heavy == nil {
		return
	}
	j := heavy.j
	parent := tr.begin(tidLedger, "ledger", "parallel slowdown "+j.String(), 0)
	defer tr.end(parent)
	boards := map[string]*epiphany.System{}
	var one, many []float64
	for range ledgerReps {
		for _, workers := range []int{1, nproc()} {
			sys := pristine(boards, j, tr, parent)
			res, d, err := runOn(ctx, j.fitted(), sys, workers, tr, tidLedger, parent)
			if err == nil {
				err = j.check(res)
			}
			t.note(err)
			if err != nil {
				delete(boards, j.spec)
				continue
			}
			if workers == 1 {
				one = append(one, float64(d))
			} else {
				many = append(many, float64(d))
			}
		}
	}
	if len(one) == 0 || len(many) == 0 {
		return
	}
	ms["sim.parallel_slowdown"] = metric{median(many) / median(one), "ratio"}
	notes["sim.parallel_slowdown"] = fmt.Sprintf("%s on %d shard(s), workers %d vs 1",
		j.name, heavy.stats.Shards, nproc())
}

// probeResult is what the serve probe measured.
type probeResult struct {
	requests, fresh int
	hit, miss       []time.Duration
	before, after   serveSnapshot
}

// serveProbe boots a fresh server and submits the measured jobs
// serially: two passes of misses with fresh seeds, whose allocations
// beyond the job's warm RunJob show which ones built a board, then one
// hit per job.
func serveProbe(ctx context.Context, costs []jobCost, tr *tracer, t *tally) (probeResult, error) {
	var p probeResult
	workers := 1
	for _, c := range costs {
		workers = max(workers, c.j.workers)
	}
	conn, err := startServer(epiphany.ServerConfig{Workers: nproc(), SimWorkers: workers}, 1)
	if err != nil {
		return p, err
	}
	defer conn.close()
	parent := tr.begin(tidLedger, "ledger", "serve probe", 0)
	defer tr.end(parent)
	if p.before, err = conn.snapshot(ctx, tr, parent); err != nil {
		return p, err
	}
	bodies := map[*job][]byte{}
	var ms0, ms1 runtime.MemStats
	for pass := range 2 {
		for _, c := range costs {
			if !c.measured {
				continue
			}
			j := c.j
			seed := j.seed + uint64(pass)
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			r, err := conn.submit(ctx, j, seed, "miss", tr, tidLedger, parent)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			t.note(err)
			p.requests++
			if ms1.TotalAlloc-ms0.TotalAlloc >= c.warmAlloc+freshBoardBytes {
				p.fresh++
			}
			if err == nil {
				p.miss = append(p.miss, d)
				bodies[j] = r.body // the last pass's seed is the one hit below
			}
		}
	}
	for _, c := range costs {
		j := c.j
		want, ok := bodies[j]
		if !ok {
			continue
		}
		t0 := time.Now()
		r, err := conn.submit(ctx, j, j.seed+1, "hit", tr, tidLedger, parent)
		d := time.Since(t0)
		if err == nil && !bytes.Equal(r.body, want) {
			err = fmt.Errorf("%s: hit body differs from the miss that filled it", j)
		}
		t.note(err)
		if err == nil {
			p.hit = append(p.hit, d)
		}
	}
	p.after, err = conn.snapshot(ctx, tr, parent)
	return p, err
}

// serveMetrics derives the serve layer's metrics from two snapshots and
// the hit and miss latencies between them.
func serveMetrics(ms map[string]metric, notes map[string]string, before, after serveSnapshot,
	hit, miss []time.Duration, source string) {
	p50 := func(ds []time.Duration) float64 {
		s := slices.Clone(ds)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		return percentile(s, 50)
	}
	if len(hit) > 0 {
		ms["serve.hit_ms_p50"] = metric{p50(hit), "ms"}
		notes["serve.hit_ms_p50"] = fmt.Sprintf("%d hits from %s", len(hit), source)
	}
	if len(miss) > 0 {
		ms["serve.miss_ms_p50"] = metric{p50(miss), "ms"}
		notes["serve.miss_ms_p50"] = fmt.Sprintf("%d misses", len(miss))
	}
	reqs := after.stageCount["render"] - before.stageCount["render"]
	for _, stage := range []string{"render", "queue", "simulate"} {
		if reqs > 0 {
			sum := after.stageSum[stage] - before.stageSum[stage]
			ms["serve."+stage+"_ms_per_req"] = metric{sum / reqs * 1e3, "ms"}
		}
	}
	notes["serve.render_ms_per_req"] = fmt.Sprintf("over %.0f requests in /metrics", reqs)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	if hits+misses > 0 {
		ms["serve.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
		notes["serve.cache_hit_ratio"] = fmt.Sprintf("%d of %d lookups in /v1/stats", hits, hits+misses)
	}
}

// safeProbes runs the layer probes, reporting a panic as an error.
func safeProbes(tr *tracer) (ms map[string]metric, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("probe panicked: %v", p)
		}
	}()
	return runProbes(tr), nil
}

// accounting compares the traced window's RunJob spans with the
// ledger's serial Workload.Run plus overhead, so a reader can see that
// core.run_ms_per_op and workload.overhead_ms_per_op explain RunJob.
func accounting(w io.Writer, spans []time.Duration, costs []jobCost, overhead float64) {
	var wsum, serial float64
	for _, c := range costs {
		if c.measured {
			wsum++
			serial += float64(c.runJob)
		}
	}
	if len(spans) == 0 || wsum == 0 {
		fmt.Fprintln(w, "  accounting: n/a (this workload's ops are HTTP requests, not RunJob calls)")
		return
	}
	var sum time.Duration
	for _, d := range spans {
		sum += d
	}
	traced := float64(sum) / float64(len(spans)) / 1e6
	fmt.Fprintf(w, "  accounting: traced RunJob %.6g ms/op vs core.run + workload.overhead %.6g ms/op (ratio %.4g, tracing overhead %.4g)\n",
		traced, serial/wsum/1e6, traced/(serial/wsum/1e6), overhead)
}
