package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"imtrans"
	"imtrans/internal/stats"
)

// sweepReport is the machine-readable record of one sweep benchmark: the
// capture/replay + parallel sweep pipeline timed on a (benchmark, config)
// grid from cold captures, then re-swept warm on a strong-scaling ladder.
// The replay engine's bit-identity with the two-run simulate pipeline is
// a property of the code, held by TestReplayMatchesSimulate, so it is not
// re-measured here.
type sweepReport struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Parallelism int    `json:"parallelism"`

	Configs    []string     `json:"configs"`
	Benchmarks []sweepBench `json:"benchmarks"`

	Measurements       int    `json:"measurements"`
	SweepReplayNs      int64  `json:"sweep_replay_ns"`
	SweepNsPerMeasure  int64  `json:"sweep_ns_per_measurement"`
	CaptureCacheHits   uint64 `json:"capture_cache_hits"`
	CaptureCacheMisses uint64 `json:"capture_cache_misses"`

	// Cross-configuration memo sharing: blocks recorded locally, replays
	// served from a memo, and memos adopted from another grid cell of the
	// same per-block encoding signature.
	MemoBlocks uint64 `json:"replay_memo_blocks"`
	MemoHits   uint64 `json:"replay_memo_hits"`
	MemoShared uint64 `json:"replay_memo_shared"`

	// Scaling is the strong-scaling ladder: the same grid re-swept from
	// warm captures at GOMAXPROCS 1, 4 and 8, with the sweep parallelism
	// matched to the proc count. On hosts with fewer cores than a rung the
	// rung still runs (num_cpu records what the hardware could give) —
	// speedups are honest wall-clock ratios, never extrapolated.
	Scaling []scalingEntry `json:"scaling"`

	// Supervision telemetry from the resilient sweep: retry, panic,
	// cancellation and checkpoint counters, plus every isolated failure.
	Restored      int             `json:"checkpoint_restored,omitempty"`
	SweepErrors   []string        `json:"sweep_errors,omitempty"`
	SweepCounters *stats.Counters `json:"sweep_counters"`

	Grid []sweepCell `json:"grid"`
}

type sweepBench struct {
	Name         string `json:"name"`
	N            int    `json:"n"`
	Iters        int    `json:"iters"`
	Instructions uint64 `json:"instructions"`
}

type sweepCell struct {
	Bench    string  `json:"bench"`
	Config   string  `json:"config"`
	Baseline uint64  `json:"baseline_transitions"`
	Encoded  uint64  `json:"encoded_transitions"`
	Percent  float64 `json:"reduction_percent"`
	WallNs   int64   `json:"wall_ns"`
}

// scalingEntry is one rung of the strong-scaling ladder.
type scalingEntry struct {
	Procs        int     `json:"procs"`
	SweepNs      int64   `json:"sweep_ns"`
	NsPerMeasure int64   `json:"ns_per_measurement"`
	SpeedupVs1   float64 `json:"speedup_vs_1proc"`
	GridWorkers  uint64  `json:"grid_workers"`
	InnerWorkers uint64  `json:"inner_workers"`
}

// scalingLadder re-sweeps the grid from warm captures at each proc
// count, verifying every rung reproduces the reference measurements
// bit for bit. GOMAXPROCS and the parallelism clamp are restored on
// return.
func scalingLadder(ctx context.Context, benches []imtrans.Benchmark, cfgs []imtrans.Config, want [][]imtrans.Measurement) ([]scalingEntry, error) {
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	var out []scalingEntry
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		prevPar := imtrans.SetParallelism(procs)
		start := time.Now()
		res, err := imtrans.SweepMeasureCtx(ctx, benches, cfgs, imtrans.SweepOptions{Parallelism: procs})
		el := time.Since(start).Nanoseconds()
		imtrans.SetParallelism(prevPar)
		if err != nil {
			return nil, fmt.Errorf("scaling rung %d: %w", procs, err)
		}
		if serr := res.Err(); serr != nil {
			return nil, fmt.Errorf("scaling rung %d: %w", procs, serr)
		}
		for bi := range want {
			for ci := range want[bi] {
				if res.Measurements[bi][ci].Encoded != want[bi][ci].Encoded ||
					res.Measurements[bi][ci].Baseline != want[bi][ci].Baseline {
					return nil, fmt.Errorf("scaling rung %d: cell (%d,%d) diverged from the reference sweep", procs, bi, ci)
				}
			}
		}
		e := scalingEntry{
			Procs:        procs,
			SweepNs:      el,
			NsPerMeasure: el / int64(len(benches)*len(cfgs)),
			GridWorkers:  res.Counters.Get("sweep_grid_workers"),
			InnerWorkers: res.Counters.Get("sweep_inner_workers"),
		}
		if len(out) > 0 {
			e.SpeedupVs1 = float64(out[0].SweepNs) / float64(el)
		} else {
			e.SpeedupVs1 = 1
		}
		out = append(out, e)
	}
	return out, nil
}

// sweepScale shrinks a paper benchmark to the reduced problem sizes the
// small-scale reproduction uses, so the sweep benchmark finishes in
// seconds.
func sweepScale(b imtrans.Benchmark) imtrans.Benchmark {
	switch b.Name {
	case "mmul":
		return b.WithScale(24, 0)
	case "sor":
		return b.WithScale(32, 2)
	case "ej":
		return b.WithScale(24, 4)
	case "fft":
		return b.WithScale(64, 0)
	case "tri":
		return b.WithScale(32, 10)
	case "lu":
		return b.WithScale(24, 0)
	}
	return b
}

// benchSweepOpts carries the bench -json flags: the report path, the
// worker-pool bound, the suite narrowing, and the resilience knobs
// (checkpoint journal, wall-clock deadline, per-cell retry budget, fault
// campaign).
type benchSweepOpts struct {
	path        string
	parallelism int
	names       []string
	n, iters    int
	checkpoint  string
	timeout     time.Duration
	retries     int
	inject      string
}

// benchSweepJSON times the multi-config sweep and writes the report to
// o.path. o.names narrows the suite (empty = all six paper
// kernels); o.n/o.iters override every benchmark's scale when nonzero.
// The sweep phase runs supervised: SIGINT/SIGTERM or -timeout cancel it
// cooperatively (journalling survives with -checkpoint), injected faults
// are isolated into the report's sweep_errors, and the supervision
// counters land in sweep_counters.
func benchSweepJSON(o benchSweepOpts) error {
	parallelism := o.parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	imtrans.SetParallelism(parallelism)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	sweepOpts := imtrans.SweepOptions{
		Parallelism: parallelism,
		Checkpoint:  o.checkpoint,
		Retry: imtrans.RetryPolicy{
			MaxAttempts: o.retries,
			BaseDelay:   50 * time.Millisecond,
			Jitter:      0.5,
		},
	}
	if o.inject != "" {
		plan, err := imtrans.ParseSweepFaultPlan(o.inject)
		if err != nil {
			return err
		}
		sweepOpts.FaultInject = plan.Injector()
	}

	var benches []imtrans.Benchmark
	if len(o.names) == 0 {
		for _, b := range imtrans.Benchmarks() {
			benches = append(benches, sweepScale(b))
		}
	} else {
		for _, nm := range o.names {
			b, err := imtrans.BenchmarkByName(nm)
			if err != nil {
				return err
			}
			benches = append(benches, sweepScale(b))
		}
	}
	if o.n != 0 || o.iters != 0 {
		for i := range benches {
			benches[i] = benches[i].WithScale(o.n, o.iters)
		}
	}
	// The Figure 6 block sizes plus a four-way k=5 capacity/selection
	// spread: the k=5 cells share a per-block encoding signature, so the
	// sweep's cross-configuration memo store pays each hot block's first
	// verified walk once for all five of them.
	cfgs := []imtrans.Config{
		{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7},
		{BlockSize: 5, TTEntries: 4}, {BlockSize: 5, TTEntries: 8},
		{BlockSize: 5, TTEntries: 32}, {BlockSize: 5, Knapsack: true},
	}
	total := len(benches) * len(cfgs)

	// The grid through capture/replay + the parallel sweep, from a cold
	// capture cache so the single profiling run per kernel is paid inside
	// the measured interval.
	imtrans.ClearCaptureCache()
	sweepStart := time.Now()
	res, err := imtrans.SweepMeasureCtx(ctx, benches, cfgs, sweepOpts)
	if err != nil {
		if res != nil && o.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted: %d cells journalled in %s; rerun to resume\n",
				res.Restored+res.Completed, o.checkpoint)
		}
		return err
	}
	sweepNs := time.Since(sweepStart).Nanoseconds()
	hits, misses := imtrans.CaptureCacheStats()
	if res.Restored > 0 {
		fmt.Fprintf(os.Stderr, "resumed %d cells from %s, measured %d\n",
			res.Restored, o.checkpoint, res.Completed)
	}

	// Failed cells stay out of the grid and are reported as isolated
	// errors.
	var cells []sweepCell
	info := make([]sweepBench, len(benches))
	for bi, b := range benches {
		info[bi] = sweepBench{Name: b.Name, N: b.N, Iters: b.Iters}
		for ci, c := range cfgs {
			if !res.Done[bi][ci] {
				continue
			}
			got := res.Measurements[bi][ci]
			info[bi].Instructions = got.Instructions
			cells = append(cells, sweepCell{
				Bench:    b.Name,
				Config:   c.String(),
				Baseline: got.Baseline,
				Encoded:  got.Encoded,
				Percent:  got.Percent,
				WallNs:   res.CellNs[bi][ci],
			})
		}
	}

	// Then the strong-scaling ladder, on warm captures so each rung
	// times exactly the encode+replay pipeline. Skipped when cells failed
	// (a fault campaign leaves no trustworthy reference grid).
	var scaling []scalingEntry
	if len(res.Errors) == 0 {
		scaling, err = scalingLadder(ctx, benches, cfgs, res.Measurements)
		if err != nil {
			return err
		}
	}

	rep := sweepReport{
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Parallelism:        parallelism,
		Benchmarks:         info,
		Measurements:       total,
		SweepReplayNs:      sweepNs,
		SweepNsPerMeasure:  sweepNs / int64(total),
		CaptureCacheHits:   hits,
		CaptureCacheMisses: misses,
		MemoBlocks:         res.Counters.Get("replay_memo_blocks"),
		MemoHits:           res.Counters.Get("replay_memo_hits"),
		MemoShared:         res.Counters.Get("replay_memo_shared"),
		Scaling:            scaling,
		Restored:           res.Restored,
		SweepCounters:      &res.Counters,
		Grid:               cells,
	}
	for _, se := range res.Errors {
		rep.SweepErrors = append(rep.SweepErrors, se.Error())
	}
	for _, c := range cfgs {
		rep.Configs = append(rep.Configs, c.String())
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(o.path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("%d measurements (%d kernels x %d configs), -j %d\n",
		total, len(benches), len(cfgs), parallelism)
	fmt.Printf("capture/replay sweep: %8.1f ms (%6.2f ms/measurement, %d cells); report written to %s\n",
		float64(sweepNs)/1e6, float64(rep.SweepNsPerMeasure)/1e6, len(cells), o.path)
	for _, s := range rep.Scaling {
		fmt.Printf("scaling: %d procs: %8.1f ms sweep, %.2fx vs 1 proc (grid %d x inner %d workers)\n",
			s.Procs, float64(s.SweepNs)/1e6, s.SpeedupVs1, s.GridWorkers, s.InnerWorkers)
	}
	if len(res.Errors) > 0 {
		for _, se := range res.Errors {
			fmt.Fprintln(os.Stderr, "sweep error:", se.Error())
		}
		return fmt.Errorf("%d isolated sweep failure(s); the other %d cells completed (report written to %s)",
			len(res.Errors), len(cells), o.path)
	}
	return nil
}
