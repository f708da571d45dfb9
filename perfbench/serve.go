package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"syscall"
	"time"
)

// Frozen load settings, measured on a 2-CPU host when the benchmark was
// defined. Each open-loop rate is about a sixth (serve-grid) or an
// eighth (serve-mixed) of the workload's capacity, not half: the host is
// shared, and with one busy competing process serve-grid's p90 rose 37 %
// at a third of capacity but not at a sixth. serve-mixed's
// rate and batch are also kept low because its store writes and fsyncs
// slowed the host's disk run after run at higher volume. The latency
// limit applies to capacity_rps (closed loop) and to failed requests (a
// failure counts as over the limit). Changing any of these changes the
// benchmark, not the program.
const (
	gridRateRPS      = 30.0
	gridClosedBatch  = 80 // requests per round, about 0.45s at the frozen capacity of 185/s
	gridLimitMs      = 250.0
	mixedRateRPS     = 50.0
	mixedClosedBatch = 125 // requests per round, about 0.3s at the frozen capacity of 400/s
	mixedLimitMs     = 500.0
	windowS          = 2.0 // seconds per open-loop window; a run has --seconds/windowS rounds
	setupRuns        = 3   // daemon start-ups per run; setup_s is their median
	checkedBodies    = 6   // responses per run re-computed in-process and compared
	captureCache     = 128 // imtransd's default capture-cache entries
	resultCache      = 256 // imtransd's default result-cache entries
)

// serveWorkload is what distinguishes serve-grid from serve-mixed.
type serveWorkload struct {
	name    string
	rate    float64 // open-loop requests per second
	batch   int     // closed-loop requests per round
	limitMs float64
	flags   func(dir string) []string // daemon flags for one start-up
	warm    func() []*Body            // set-up requests after /readyz
	open    func() *Body              // open-loop body source
	closed  func() *Body              // closed-loop body source
	jobs    bool
}

func runServeGrid(ctx context.Context, e *runEnv) error {
	g := newGridGen(e.seed)
	return runServe(ctx, e, &serveWorkload{
		name:    "serve-grid",
		rate:    gridRateRPS,
		batch:   gridClosedBatch,
		limitMs: gridLimitMs,
		flags:   func(string) []string { return nil },
		warm:    warmGridBodies,
		open:    g.Next,
		closed:  g.Next,
	}, func() (*Body, *Body) { return g.Next(), g.Next() })
}

func runServeMixed(ctx context.Context, e *runEnv) error {
	var g *mixedGen
	return runServe(ctx, e, &serveWorkload{
		name:    "serve-mixed",
		rate:    mixedRateRPS,
		batch:   mixedClosedBatch,
		limitMs: mixedLimitMs,
		flags: func(dir string) []string {
			// A fresh, empty store for every start-up, default fsync.
			return []string{"-store.dir", filepath.Join(dir, "store"), "-jobs.dir", filepath.Join(dir, "jobs")}
		},
		warm: func() []*Body {
			g = newMixedGen(e.seed)
			return g.Warm()
		},
		open: func() *Body {
			g.jobs = true
			return g.Next()
		},
		closed: func() *Body {
			g.jobs = false // capacity covers synchronous requests only
			return g.Next()
		},
		jobs: true,
	}, func() (*Body, *Body) { return g.probePair() })
}

// runServe runs one serve workload: set-up setupRuns times, an open loop
// at the frozen rate, a closed loop for capacity, the output checks and,
// when traced, the per-layer probes.
func runServe(ctx context.Context, e *runEnv, w *serveWorkload, probeBodies func() (*Body, *Body)) error {
	hc := newHTTPClient(e.nproc)
	defer hc.CloseIdleConnections()
	bin := filepath.Join(e.bin, "imtransd")
	profile := filepath.Join(e.dir, "imtransd.prof")

	var d *daemon
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("daemon%d", i))
		flags := w.flags(dir)
		if e.trace && i == setupRuns-1 {
			flags = append(flags, "-cpuprofile", profile)
		}
		warm := w.warm()
		start := time.Now()
		var err error
		d, err = startDaemon(bin, flags, dir+".log")
		if err == nil {
			err = d.waitReady(ctx, hc)
		}
		for _, b := range warm {
			if err != nil {
				break
			}
			smp := &sample{Body: b}
			smp.Status, smp.Resp, smp.Err = post(ctx, hc, d.base, b)
			err = checkSample(smp)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			if d != nil {
				d.kill()
			}
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		if i < setupRuns-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	// Flush what set-up (and earlier runs) left dirty, so write-back does
	// not land inside the measured phases.
	syscall.Sync()
	before, err := d.metrics(hc)
	if err != nil {
		return err
	}
	s := &sender{hc: hc, base: d.base, workers: e.nproc, tr: e.tr}
	if w.jobs {
		s.jobs = newJobTracker(hc, d.base)
	}
	// The measured phase alternates rounds of an open-loop window and a
	// closed-loop batch, so both loops sample the same stretches of a
	// shared host's changing speed.
	rounds := max(1, int(math.Round(e.seconds/windowS)))
	nOpen := int(math.Round(w.rate * e.seconds / float64(rounds)))
	// Each closed batch is a fixed number of requests, so the work and
	// the class mix stay the same however fast the program is.
	nClosed := w.batch
	openBodies := make([][]*Body, rounds)
	closedBodies := make([][]*Body, rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < nOpen; i++ {
			openBodies[r] = append(openBodies[r], w.open())
		}
		for i := 0; i < nClosed; i++ {
			closedBodies[r] = append(closedBodies[r], w.closed())
		}
	}

	cpu0 := readHostCPU()
	daemonCPU0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	phase := e.tr.Start(SpanRef{}, "workload."+w.name)
	start := time.Now()
	var open, closed [][]*sample
	var closedDurs []time.Duration
	// The host's steal share over each open window and closed batch, for
	// the report: it tells a slow host from a slow program.
	var openSteal, closedSteal []float64
	for r := 0; r < rounds; r++ {
		c0 := readHostCPU()
		open = append(open, s.openLoop(ctx, openBodies[r], time.Duration(float64(time.Second)/w.rate)))
		openSteal = append(openSteal, readHostCPU().stealShareSince(c0))
		// Jobs submitted by the open window finish before the closed
		// batch starts, so capacity never shares the CPUs with a backlog.
		if s.jobs != nil {
			s.jobs.settle(60 * time.Second)
		}
		c1 := readHostCPU()
		closedStart := time.Now()
		closed = append(closed, s.closedLoop(ctx, closedBodies[r]))
		closedDurs = append(closedDurs, time.Since(closedStart))
		closedSteal = append(closedSteal, readHostCPU().stealShareSince(c1))
	}
	var jobs []*trackedJob
	var jobPolls int
	if s.jobs != nil {
		jobs, jobPolls = s.jobs.wait(60 * time.Second)
	}
	phase.End()
	phaseWall := time.Since(start)
	daemonCPU1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	e.props["host_steal_share"] = readHostCPU().stealShareSince(cpu0)

	after, err := d.metrics(hc)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}

	// Checks: every response, every job result, and a seeded sample
	// recomputed in-process.
	var all []*sample
	for r := range open {
		all = append(append(all, open[r]...), closed[r]...)
	}
	var good []*sample
	failedAt := map[*sample]bool{}
	for _, smp := range all {
		e.attempted++
		if err := checkSample(smp); err != nil {
			e.fail(err)
			failedAt[smp] = true
		} else if smp.Body.Kind != "job" {
			good = append(good, smp)
		}
	}
	var jobSecs []float64
	var goodJobs []*trackedJob
	for _, j := range jobs {
		e.attempted++
		err := j.Err
		if err == nil {
			_, err = checkGrid(j.Body, j.Result)
		}
		if err != nil {
			e.fail(fmt.Errorf("job: %w", err))
			continue
		}
		jobSecs = append(jobSecs, j.Ready.Sub(j.Submitted).Seconds())
		goodJobs = append(goodJobs, j)
	}
	// The sample is drawn apart from the bodies, so it depends on the
	// seed alone.
	rng := rand.New(rand.NewSource(e.seed + 1))
	checkSpan := e.tr.Start(SpanRef{}, "check.in_process")
	for _, i := range rng.Perm(len(good))[:min(checkedBodies, len(good))] {
		if err := checkBitIdentical(ctx, good[i].Body, good[i].Resp, e.nproc); err != nil {
			e.fail(err)
		}
	}
	for _, i := range rng.Perm(len(goodJobs))[:min(checkedBodies, len(goodJobs))] {
		if err := checkBitIdentical(ctx, goodJobs[i].Body, goodJobs[i].Result, e.nproc); err != nil {
			e.fail(fmt.Errorf("job result: %w", err))
		}
	}
	checkSpan.End()

	// End-to-end metrics. Latency is per request kind (see
	// kindPercentiles) over the open-loop grid requests; a job submission
	// is only acknowledged, its end-to-end time is jobs.job_s. A failed
	// request counts as 10x the limit. p50_ms and capacity_rps are
	// medians over the rounds (each round's p50 over its own window, and
	// its in-limit closed-loop answers per second), so the few rounds a
	// burst of load on the shared host lands in do not set them. Every run
	// holds the same rounds, so the medians compare across runs. p90_ms
	// pools every round, so that enough samples lie beyond it. Per-round
	// values go to the report.
	openLatency := func(smps []*sample) map[string][]float64 {
		byKind := map[string][]float64{}
		for _, smp := range smps {
			if smp.Body.Kind == "job" {
				continue
			}
			l := float64(smp.latency().Microseconds()) / 1000
			if failedAt[smp] {
				l = 10 * w.limitMs
			}
			byKind[smp.Body.Class] = append(byKind[smp.Body.Class], l)
		}
		return byKind
	}
	var p50s, p90s, caps []float64
	for r := range open {
		p50, p90, _ := kindPercentiles(openLatency(open[r]))
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		roundWithin := 0
		for _, smp := range closed[r] {
			if !failedAt[smp] && float64(smp.latency().Microseconds())/1000 <= w.limitMs {
				roundWithin++
			}
		}
		caps = append(caps, float64(roundWithin)/closedDurs[r].Seconds())
	}
	byKind := openLatency(flatten(open))
	p50, p90, perKind := kindPercentiles(byKind)
	samplesByKind := map[string]int{}
	for k, xs := range byKind {
		samplesByKind[k] = len(xs)
	}
	v := map[string]float64{
		"setup_s":      median(setups),
		"p50_ms":       median(p50s),
		"p90_ms":       p90,
		"capacity_rps": median(caps),
		"peak_rss_mb":  rss,
		// Every request the phase sent, job submissions included (a
		// job's work and polls are inside the phase).
		"cpu_ms_per_op": ratio(daemonCPU1-daemonCPU0, float64(len(all))) * 1000,
	}
	e.props["open_latency_p50_p90_ms_by_kind"] = perKind
	e.props["samples_open_by_kind"] = samplesByKind
	e.props["round_p50_ms"], e.props["round_p90_ms"], e.props["round_capacity_rps"] = p50s, p90s, caps
	e.props["round_open_steal_share"], e.props["round_closed_steal_share"] = openSteal, closedSteal
	e.props["pooled_p50_ms"] = p50
	recordServeProps(e, w, rounds, flatten(open), flatten(closed), setups, before, after)
	recordJobProps(e, jobSecs, len(jobs), jobPolls)
	setE2E(e, v, phaseWall)

	if e.trace {
		delta := func(k string) float64 { return after[k] - before[k] }
		var respBytes float64
		for _, smp := range good {
			respBytes += float64(len(smp.Resp))
		}
		e.values["server.resp_kb"] = ratio(respBytes, float64(len(good))) / 1024
		hits := delta("imtransd_cache_hits_total") + delta("imtransd_cache_tier_hits_total")
		e.values["server.result_hit_ratio"] = ratio(hits, hits+delta("imtransd_cache_misses_total"))
		misses := delta("imtransd_capture_cache_misses_total")
		e.values["capture.miss_ratio"] = ratio(misses, misses+delta("imtransd_capture_cache_hits_total"))
		e.values["cas.tier_hit_ratio"] = ratio(delta("imtransd_capture_tier_hits_total"), misses)
		e.values["cas.puts"] = delta("imtransd_cas_puts_total")
		e.values["cas.mb"] = after["imtransd_cas_bytes"] / (1 << 20)
		e.values["jobs.job_s"] = median(jobSecs)
		if err := serverOverhead(ctx, e, hc, d, probeBodies); err != nil {
			return err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}
	if err := profileShares(ctx, e, bin, profile); err != nil {
		return err
	}
	return probeLayers(ctx, e, false)
}

// recordServeProps records the workload properties the metrics depend
// on: cells per request, class shares, capture sources, working set
// against the daemon's caches, and how late the open-loop sender ran.
func recordServeProps(e *runEnv, w *serveWorkload, rounds int, open, closed []*sample, setups []float64, before, after map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	all := append(append([]*sample(nil), open...), closed...)
	classes := map[string]int{}
	var cells []float64
	pairs := map[benchRef]bool{}
	for _, smp := range all {
		classes[smp.Body.Class]++
		cells = append(cells, float64(smp.Body.Cells))
		for _, r := range smp.Body.refs() {
			pairs[r] = true
		}
	}
	shares := map[string]float64{}
	for c, n := range classes {
		shares[c] = float64(n) / float64(len(all))
	}
	var late []float64
	for _, smp := range open {
		late = append(late, float64(smp.late().Microseconds())/1000)
	}
	hits, misses := delta("imtransd_capture_cache_hits_total"), delta("imtransd_capture_cache_misses_total")
	tier := delta("imtransd_capture_tier_hits_total")
	lookups := hits + misses
	e.props["rate_rps"] = w.rate
	e.props["latency_limit_ms"] = w.limitMs
	e.props["loop"] = fmt.Sprintf("%d rounds of an open-loop window at %g rps (%.1fs) and a closed-loop batch of %d requests, %d keep-alive connections", rounds, w.rate, e.seconds/float64(rounds), len(closed)/rounds, e.nproc)
	e.props["samples_open"] = len(open)
	e.props["samples_closed"] = len(closed)
	e.props["setup_runs_s"] = setups
	e.props["cells_per_request_mean"] = ratio(sumF(cells), float64(len(cells)))
	e.props["cells_per_request_max"] = quantile(cells, 1)
	e.props["class_share"] = shares
	e.props["capture_share_memory"] = ratio(hits, lookups)
	e.props["capture_share_cas_tier"] = ratio(tier, lookups)
	e.props["capture_share_fresh_sim"] = ratio(misses-tier, lookups)
	e.props["distinct_pairs"] = len(pairs)
	e.props["capture_cache_entries"] = captureCache
	e.props["result_cache_entries"] = resultCache
	e.props["sender_late_p50_ms"] = quantile(late, 0.5)
	e.props["sender_late_p90_ms"] = quantile(late, 0.9)
	e.props["sender_late_max_ms"] = quantile(late, 1)
}

// recordJobProps records how the job times were measured and how they
// spread: jobs.job_s is their median.
func recordJobProps(e *runEnv, jobSecs []float64, jobs, polls int) {
	e.props["jobs"] = jobs
	if jobs == 0 {
		return
	}
	e.props["job_poll_period_ms"] = float64(jobPoll.Microseconds()) / 1000
	e.props["job_result_polls"] = polls
	e.props["job_s_p10_p50_p90_max"] = []float64{quantile(jobSecs, 0.1), quantile(jobSecs, 0.5), quantile(jobSecs, 0.9), quantile(jobSecs, 1)}
}

// kindPercentiles returns the p50 and p90 of each request kind's
// latencies, and the geometric mean of each over the kinds. Every kind
// weighs the same whatever its share of the traffic, and each kind's
// percentile stays inside that kind's own latency mode, so the pooled
// value does not jump between modes as a window's mix varies.
func kindPercentiles(byKind map[string][]float64) (p50, p90 float64, perKind map[string][2]float64) {
	perKind = map[string][2]float64{}
	var log50, log90 float64
	for k, xs := range byKind {
		q := [2]float64{quantile(xs, 0.5), quantile(xs, 0.9)}
		perKind[k] = q
		log50 += math.Log(q[0])
		log90 += math.Log(q[1])
	}
	if len(perKind) == 0 {
		return 0, 0, perKind
	}
	n := float64(len(perKind))
	return math.Exp(log50 / n), math.Exp(log90 / n), perKind
}

func sumF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// refs lists the (kernel, scale) pairs a body touches.
func (b *Body) refs() []benchRef {
	switch {
	case b.measure != nil:
		return b.measure.Benchmarks
	case b.compare != nil:
		return b.compare.Benchmarks
	case b.job != nil:
		return b.job.Benchmarks
	}
	return nil
}

// serverOverhead measures what the HTTP layer adds: the same fresh body
// served by the idle daemon and computed in-process, the median
// difference over a few bodies. Each timed body follows an untimed one
// over the same (kernel, scale) pairs, so both sides have the captures
// warm and neither has the timed body's result cached.
func serverOverhead(ctx context.Context, e *runEnv, hc *http.Client, d *daemon, probeBodies func() (*Body, *Body)) error {
	var viaHTTP, direct []float64
	for i := 0; i < 5; i++ {
		warm, b := probeBodies()
		if _, err := inProcess(ctx, warm, e.nproc); err != nil {
			return err
		}
		if status, resp, err := post(ctx, hc, d.base, warm); err != nil || status != http.StatusOK {
			return fmt.Errorf("overhead probe warm-up: HTTP %d: %v %s", status, err, truncate(resp))
		}
		sp := e.tr.Start(SpanRef{}, "probe.server.http")
		start := time.Now()
		status, resp, err := post(ctx, hc, d.base, b)
		viaHTTP = append(viaHTTP, time.Since(start).Seconds()*1000)
		sp.End()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("overhead probe: HTTP %d: %v %s", status, err, truncate(resp))
		}
		sp = e.tr.Start(SpanRef{}, "probe.server.inprocess")
		start = time.Now()
		if _, err := inProcess(ctx, b, e.nproc); err != nil {
			return err
		}
		direct = append(direct, time.Since(start).Seconds()*1000)
		sp.End()
	}
	e.values["server.overhead_ms"] = median(viaHTTP) - median(direct)
	return nil
}

func flatten(rounds [][]*sample) []*sample {
	var out []*sample
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}
