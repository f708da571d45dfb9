package imtrans

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imtrans/internal/checkpoint"
	"imtrans/internal/core"
	"imtrans/internal/replay"
	"imtrans/internal/runsafe"
	"imtrans/internal/stats"
	"imtrans/internal/wsq"
)

// gridSpec is what one grid entry point hands the supervised grid engine:
// the benchmark rows, the column count, the checkpoint identity of the
// grid, and the two hooks in which the entry points differ — the sharing
// between cells and the per-cell measurement. SweepMeasureCtx and
// CompareMeasureCtx are thin adapters over runGrid.
type gridSpec[T any] struct {
	kind       string // "sweep" or "compare": counter prefix and error wording
	benchmarks []Benchmark
	cols       int

	grid                 string // journal identity (sweepGrid / compareGrid)
	benchNames, colNames []string

	// share returns every cell's sharing environment (memo stores,
	// transition streams), indexed bench*cols+col, once the capture phase
	// has run; caps[bench] is nil when nothing of that benchmark will be
	// measured. The engine adds the encoder bound and the worker arena.
	share func(caps []*replay.Capture) []replayEnv

	// measure evaluates column col against a capture, returning the
	// journalled payload and the cell's sharing diagnostics.
	measure func(ctx context.Context, cap *replay.Capture, col int, env replayEnv) (T, cellMemo, error)
}

// cellMemo is one measured cell's sharing diagnostics: paper replays
// report memo blocks, hits and cross-cell adoptions, fleet cells report
// hits and whether they attached the shared transition stream.
type cellMemo struct {
	blocks, shared int
	hits           uint64
	stream         bool
}

// gridCell is the supervision state of one grid cell.
type gridCell[T any] struct {
	m        T
	memo     cellMemo
	wallNs   int64
	done     bool
	restored bool
	err      error
	attempts int
	ckErr    error
}

// gridFailure is one isolated failure, in grid order; col is -1 when the
// whole benchmark failed to capture.
type gridFailure struct {
	bench, col int
	stage      string // "capture", "measure" or "checkpoint"
	attempts   int
	err        error
}

// gridRun is the grid-order outcome of runGrid, ready for an adapter to
// map onto its public result type.
type gridRun[T any] struct {
	kind   string
	cells  []gridCell[T] // bench*cols+col
	vals   [][]T
	done   [][]bool
	cellNs [][]int64
	errs   []gridFailure

	restored, completed, cancelled int

	failed, skipped, retries, panics, tripped int
	recorded, ckErrs, gridPar, inner          int

	err error // cancellation, wrapping ctx.Err()
}

// fresh reports whether cell t was measured by this run (not restored).
func (r *gridRun[T]) fresh(t int) bool { return r.cells[t].done && !r.cells[t].restored }

// addCounters publishes the supervision counters under the grid's prefix,
// then the adapter's own counters (extra may be nil), then the checkpoint
// counters. Counters keep insertion order in JSON reports, so this order
// is part of the bench -json and compare -json output.
func (r *gridRun[T]) addCounters(c *stats.Counters, extra func()) {
	p := r.kind + "_"
	c.Add(p+"cells", uint64(len(r.cells)))
	c.Add(p+"completed", uint64(r.completed))
	c.Add(p+"failed", uint64(r.failed))
	c.Add(p+"skipped", uint64(r.skipped))
	c.Add(p+"cancelled", uint64(r.cancelled))
	c.Add(p+"retries", uint64(r.retries))
	c.Add(p+"panics", uint64(r.panics))
	c.Add(p+"breaker_tripped", uint64(r.tripped))
	c.Add(p+"grid_workers", uint64(r.gridPar))
	c.Add(p+"inner_workers", uint64(r.inner))
	if extra != nil {
		extra()
	}
	c.Add("checkpoint_restored", uint64(r.restored))
	c.Add("checkpoint_recorded", uint64(r.recorded))
	c.Add("checkpoint_errors", uint64(r.ckErrs))
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runGrid evaluates every (benchmark, column) cell of a grid under
// supervision: each capture and each cell runs with a recover() guard, the
// retry policy and the circuit breaker from opts, so one poisoned cell
// yields an isolated failure while the rest of the grid completes. With
// opts.Checkpoint set, completed cells are journalled atomically and a
// journal left by an interrupted run restores its cells instead of
// re-measuring them. The returned error is non-nil only for checkpoint
// setup failures; cancellation is reported in gridRun.err.
func runGrid[T any](ctx context.Context, spec gridSpec[T], opts SweepOptions) (*gridRun[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	nb, nc := len(spec.benchmarks), spec.cols
	cells := make([]gridCell[T], nb*nc)

	var journal *checkpoint.Journal
	restored := 0
	if opts.Checkpoint != "" {
		j, prev, err := checkpoint.Open(opts.Checkpoint, spec.grid, spec.benchNames, spec.colNames)
		if err != nil {
			return nil, fmt.Errorf("imtrans: %w", err)
		}
		j.SetDurable(opts.CheckpointSync)
		journal = j
		for _, c := range prev {
			s := &cells[c.Bench*nc+c.Config]
			if err := json.Unmarshal(c.Payload, &s.m); err != nil {
				return nil, fmt.Errorf("imtrans: checkpoint cell (%s, %s): %w",
					spec.benchNames[c.Bench], spec.colNames[c.Config], err)
			}
			s.done, s.restored = true, true
			restored++
		}
	}

	var progressDone atomic.Int64
	progressDone.Store(int64(restored))
	if opts.Progress != nil {
		opts.Progress(restored, nb*nc)
	}

	pol := opts.Retry.policy()
	brk := runsafe.NewBreaker(opts.BreakerThreshold)

	// Capture phase: one supervised profiling run per benchmark that still
	// has pending cells; every column of a benchmark shares the capture. A
	// benchmark restored entirely from the journal is not re-simulated.
	type benchState struct {
		err      error
		attempts int
	}
	states := make([]benchState, nb)
	caps := make([]*replay.Capture, nb)
	runPoolCtx(ctx, par, nb, func(bi int) {
		pending := false
		for ci := 0; ci < nc; ci++ {
			pending = pending || !cells[bi*nc+ci].done
		}
		if !pending {
			return
		}
		b := spec.benchmarks[bi]
		states[bi].attempts, states[bi].err = runsafe.Do(ctx, pol, brk, func(context.Context) error {
			p, err := b.Program()
			if err != nil {
				return err
			}
			cap, err := captureProgram(p, b.setup, b.captureSalt())
			if err != nil {
				return err
			}
			caps[bi] = cap
			return nil
		})
	})

	// Measure phase: one supervised task per pending cell, distributed by
	// a work-stealing queue so a few expensive cells cannot strand the
	// other workers. Failures stay in the cell — the pool keeps draining
	// the rest of the grid.
	//
	// The SetParallelism clamp is split across the two nesting levels:
	// grid workers get min(requested, clamp) and each cell's encoder
	// narrows its bit-line fan-out to the quotient, so grid-workers x
	// encode-workers never exceeds the clamp. Wide grids therefore run
	// one cell per core with serial encoders; narrow grids keep the
	// encoder fan-out instead. Each worker carries one scratch arena
	// (encode matrices + replay working set) across every cell it
	// measures.
	clamp := core.Parallelism()
	gridPar := max(1, min(par, clamp, nb*nc))
	inner := max(1, clamp/gridPar)
	arenas := make([]measureArena, gridPar)
	envs := spec.share(caps)
	runStealCtx(ctx, gridPar, nb*nc, func(worker, t int) {
		bi, ci := t/nc, t%nc
		s := &cells[t]
		if s.done || caps[bi] == nil {
			return
		}
		env := envs[t]
		env.encWorkers, env.arena = inner, &arenas[worker]
		attempt := 0
		s.attempts, s.err = runsafe.Do(ctx, pol, brk, func(tctx context.Context) error {
			attempt++
			if opts.FaultInject != nil {
				if err := opts.FaultInject(bi, ci, attempt); err != nil {
					return err
				}
			}
			start := time.Now()
			m, memo, err := spec.measure(tctx, caps[bi], ci, env)
			if err != nil {
				return err
			}
			s.m, s.memo, s.wallNs = m, memo, time.Since(start).Nanoseconds()
			return nil
		})
		if s.err != nil {
			return
		}
		s.done = true
		if journal != nil {
			payload, err := json.Marshal(s.m)
			if err == nil {
				err = journal.Record(bi, ci, payload)
			}
			s.ckErr = err
		}
		if opts.Progress != nil {
			opts.Progress(int(progressDone.Add(1)), nb*nc)
		}
	})

	// Assemble the outcome in grid order: deterministic failure ordering
	// and counters at any parallelism.
	r := &gridRun[T]{
		kind:    spec.kind,
		cells:   cells,
		vals:    make([][]T, nb),
		done:    make([][]bool, nb),
		cellNs:  make([][]int64, nb),
		gridPar: gridPar,
		inner:   inner,
	}
	fail := func(bi, ci int, stage string, attempts int, err error) {
		var pe *runsafe.PanicError
		if errors.As(err, &pe) {
			r.panics++
		}
		if errors.Is(err, runsafe.ErrTripped) {
			r.tripped++
		}
		r.errs = append(r.errs, gridFailure{bench: bi, col: ci, stage: stage, attempts: attempts, err: err})
	}
	for bi := 0; bi < nb; bi++ {
		r.vals[bi] = make([]T, nc)
		r.done[bi] = make([]bool, nc)
		r.cellNs[bi] = make([]int64, nc)
		st := &states[bi]
		r.retries += max(0, st.attempts-1)
		capFailed := st.err != nil && !isCtxErr(st.err)
		if capFailed {
			fail(bi, -1, "capture", st.attempts, st.err)
		}
		for ci := 0; ci < nc; ci++ {
			s := &cells[bi*nc+ci]
			r.retries += max(0, s.attempts-1)
			switch {
			case s.done:
				r.vals[bi][ci], r.done[bi][ci], r.cellNs[bi][ci] = s.m, true, s.wallNs
				if s.restored {
					r.restored++
				} else {
					r.completed++
					if journal != nil && s.ckErr == nil {
						r.recorded++
					}
				}
				if s.ckErr != nil {
					r.ckErrs++
					r.errs = append(r.errs, gridFailure{bench: bi, col: ci, stage: "checkpoint", attempts: s.attempts, err: s.ckErr})
				}
			case capFailed:
				r.skipped++
			case s.err != nil && !isCtxErr(s.err):
				r.failed++
				fail(bi, ci, "measure", s.attempts, s.err)
			default:
				// No result, no recorded failure: the cell was abandoned
				// mid-flight or never started because the context ended.
				r.cancelled++
			}
		}
	}
	if ctx.Err() != nil {
		r.err = fmt.Errorf("imtrans: %s cancelled with %d/%d cells done: %w",
			spec.kind, r.restored+r.completed, nb*nc, ctx.Err())
	}
	return r, nil
}

// sharedPerGroup allocates one store per benchmark for every group of two
// or more columns with an equal non-empty key, indexed bench*len(keys)+col.
// Singleton groups and empty keys get the zero value: there is nothing to
// share, so they skip the store locking entirely.
func sharedPerGroup[S any](nb int, keys []string, alloc func() S) []S {
	groups := make(map[string][]int, len(keys))
	for ci, k := range keys {
		if k != "" {
			groups[k] = append(groups[k], ci)
		}
	}
	out := make([]S, nb*len(keys))
	for _, idxs := range groups {
		if len(idxs) < 2 {
			continue
		}
		for bi := 0; bi < nb; bi++ {
			store := alloc() // stores never cross programs
			for _, ci := range idxs {
				out[bi*len(keys)+ci] = store
			}
		}
	}
	return out
}

// runStealCtx runs f(worker, 0..n-1) over a work-stealing worker pool:
// each worker owns a contiguous interval of the index space (neighbouring
// grid cells share captures, chain tables and memo stores, so locality is
// worth keeping) and steals the back half of the fullest remaining
// interval once its own drains — skewed per-cell costs cannot strand a
// core the way strided assignment can. Each index runs exactly once;
// callers needing determinism write into index-addressed slots, the same
// contract as runPoolCtx. The worker id is passed through so callers can
// bind per-worker state such as scratch arenas.
func runStealCtx(ctx context.Context, workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(0, i)
		}
		return
	}
	q := wsq.New(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := q.Next(w)
				if !ok {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// runPoolCtx runs f(0..n-1) over at most `workers` goroutines with strided
// assignment and cooperative cancellation: once ctx is done, workers stop
// picking up new indices. Indices already being processed finish (or
// observe the context themselves); skipped indices keep their zero-value
// slots, so callers must consult ctx.Err() before trusting the output.
func runPoolCtx(ctx context.Context, workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := first; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
