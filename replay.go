package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/cpu"
	"imtrans/internal/power"
	"imtrans/internal/replay"
	"imtrans/internal/scheme"
)

// SetParallelism bounds the worker pools of the measurement pipeline — the
// encoder's per-bit-line fan-out and the per-configuration replay
// fan-out — and returns the previous bound. Values below 1 (zero,
// negative) are clamped to 1, so the pipeline is always fully serial at
// the bottom, never stalled; the default is GOMAXPROCS. Results never
// depend on the setting — only wall-clock time does.
func SetParallelism(n int) int { return core.SetParallelism(n) }

// Parallelism reports the current measurement-pipeline worker bound.
func Parallelism() int { return core.Parallelism() }

// CaptureCacheStats reports hits and misses of the process-wide fetch-trace
// capture cache (misses equal full profiling simulations performed).
func CaptureCacheStats() (hits, misses uint64) { return replay.Shared.Stats() }

// SetCaptureCacheLimit bounds the process-wide capture cache to n entries
// (clamped to at least 1) and returns the previous bound. When the cache
// exceeds the bound, the oldest-inserted captures are evicted first. The
// default bound is replay.DefaultCacheLimit (128 entries).
func SetCaptureCacheLimit(n int) int { return replay.Shared.SetLimit(n) }

// PurgeCaptureCache releases every cached fetch-trace capture while
// keeping the cache statistics — the memory-pressure valve for long-lived
// sweep services.
func PurgeCaptureCache() { replay.Shared.Purge() }

// ClearCaptureCache drops every cached fetch-trace capture and resets the
// cache statistics.
func ClearCaptureCache() { replay.Shared.Clear() }

func replayMeasureCtx(ctx context.Context, p *Program, setup func(Memory) error, salt string, cfgs ...Config) ([]Measurement, error) {
	cap, err := captureProgram(p, setup, salt)
	if err != nil {
		return nil, err
	}
	return replayCaptureCtx(ctx, cap, cfgs...)
}

// replayCaptureCtx evaluates every configuration against one capture,
// fanning the cells over the SetParallelism bound with deterministic
// output ordering.
func replayCaptureCtx(ctx context.Context, cap *replay.Capture, cfgs ...Config) ([]Measurement, error) {
	if len(cfgs) == 0 {
		cfgs = []Config{{}}
	}
	out := make([]Measurement, len(cfgs))
	errs := make([]error, len(cfgs))
	// Split the clamp between the two nesting levels: with several
	// configurations in flight, each one's encoder narrows its bit-line
	// fan-out so config-workers x encode-workers never exceeds the
	// SetParallelism bound.
	clamp := core.Parallelism()
	workers := min(clamp, len(cfgs))
	inner := max(1, clamp/workers)
	stores := paperStores(1, cfgs)
	runPoolCtx(ctx, workers, len(cfgs), func(i int) {
		env := replayEnv{encWorkers: inner, shared: stores[i]}
		out[i], _, errs[i] = replayOneCtx(ctx, cap, cfgs[i], env)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// captureProgram returns the capture for a program. The cache key hashes
// the program image and the salt, never the setup callback, so a capture
// goes through the process-wide cache — profiled at most once per key —
// only when the key names the whole input: no setup, or a salt naming it
// (a Benchmark's kernel and scale). A setup without a salt gets a fresh,
// uncached profiling run; caching it would serve one setup's trace to
// another.
func captureProgram(p *Program, setup func(Memory) error, salt string) (*replay.Capture, error) {
	if setup != nil && salt == "" {
		return captureRun(p, setup, nil)
	}
	return captureKeyed(p, setup, nil, salt)
}

// checkedSalt marks the cache key of a capture whose profiling run also
// passed a golden check. Every other salt is printable text, so a checked
// key never collides with an unchecked capture of the same program — a
// cached unchecked capture proves nothing about the result, and a failed
// checked capture must not poison unchecked measurements.
const checkedSalt = "\x00golden-checked"

// captureChecked is captureProgram with check applied to the memory the
// profiling run leaves behind; a failing check fails (and caches the
// failure of) the checked capture only.
func captureChecked(p *Program, setup, check func(Memory) error, salt string) (*replay.Capture, error) {
	return captureKeyed(p, setup, check, salt+checkedSalt)
}

func captureKeyed(p *Program, setup, check func(Memory) error, salt string) (*replay.Capture, error) {
	key := replay.ProgramKey(p.TextBase, p.Text, p.DataBase, p.Data, salt)
	return replay.Shared.GetOrCapture(key, func() (*replay.Capture, error) {
		c, err := captureRun(p, setup, check)
		if err != nil {
			return nil, err
		}
		c.Key = key
		return c, nil
	})
}

// captureRun performs the single profiling simulation behind a capture:
// the run feeds the trace builder through the CPU's range sink and sums
// the data bus inline (and check, when non-nil, validates the memory it
// leaves behind). Every fetch-stream statistic the capture carries is
// derived afterwards from the trace — see deriveStreamTotals.
func captureRun(p *Program, setup, check func(Memory) error) (*replay.Capture, error) {
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	builder := replay.NewBuilder()
	var data cpu.DataBus
	m1.Fetches = builder
	m1.DataBus = &data
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: profiling run: %w", err)
	}
	if check != nil {
		if err := check(Memory{m1.Mem}); err != nil {
			return nil, fmt.Errorf("golden check: %w", err)
		}
	}
	words := append([]uint32(nil), p.Text...)
	g, err := cfg.Build(p.TextBase, words)
	if err != nil {
		return nil, err
	}
	c := &replay.Capture{
		Base:            p.TextBase,
		Words:           words,
		Graph:           g,
		Trace:           builder.Trace(),
		Profile:         append([]uint64(nil), m1.Profile()...),
		Instructions:    m1.InstCount,
		DataLoads:       data.Loads,
		DataStores:      data.Stores,
		DataTransitions: data.Transitions,
		DataBusInvert:   data.BusInvert,
	}
	if err := deriveStreamTotals(c); err != nil {
		return nil, err
	}
	return c, nil
}

// deriveStreamTotals fills the configuration-independent stream
// statistics of a capture from its trace: the unencoded baseline (total
// and per line) from the transition-stream lane prefixes, and the
// Bus-Invert and 256-entry dictionary comparators from their registered
// batch kernels. Each is a pure function of the fetched word sequence,
// so the totals equal what a per-fetch drive during the run would have
// accumulated (the simulate test oracle drives them that way, and the
// differential tests hold the two paths equal).
func deriveStreamTotals(c *replay.Capture) error {
	st := scheme.NewStream(c)
	c.BaselinePerLine = st.BaselinePerLine()
	c.BaselineTotal = 0
	for _, n := range c.BaselinePerLine {
		c.BaselineTotal += n
	}
	w := &scheme.Workload{Cap: c, Stream: st}
	bi, err := measureScheme(w, "businvert")
	if err != nil {
		return err
	}
	dict, err := measureScheme(w, "dictionary")
	if err != nil {
		return err
	}
	c.BusInvertTotal = bi.Transitions
	c.DictionaryTotal, c.DictionaryBits = dict.Transitions, dict.OverheadBits
	return nil
}

// measureScheme measures a workload under a registered scheme at its
// default operating point.
func measureScheme(w *scheme.Workload, name string) (*scheme.Result, error) {
	s, err := scheme.Get(name)
	if err != nil {
		return nil, err
	}
	return s.Measure(context.Background(), w, scheme.Params{})
}

// memoSig returns the per-block encoding signature of a configuration.
// Per-block encoding is a pure function of (BlockSize, Funcs, Strategy,
// BusWidth) — the selection policy and table capacities only decide which
// blocks get covered — so configurations with equal signatures produce
// identical encoded words for every block they both cover, and their
// replays of one capture may share block-outcome memos.
func memoSig(c Config) string {
	cc := c.coreConfig()
	b := make([]byte, 0, 3+len(cc.Funcs))
	b = append(b, byte(cc.BlockSize), byte(cc.Strategy), byte(cc.BusWidth))
	for _, f := range cc.Funcs {
		b = append(b, byte(f))
	}
	return string(b)
}

// paperStores allocates the shared memo stores of a grid of nb
// benchmarks over cfgs: one per benchmark and memo-signature group of two
// or more configurations, indexed bench*len(cfgs)+config.
func paperStores(nb int, cfgs []Config) []*replay.MemoStore {
	sigs := make([]string, len(cfgs))
	for i, c := range cfgs {
		sigs[i] = memoSig(c)
	}
	return sharedPerGroup(nb, sigs, replay.NewMemoStore)
}

// replayEnv is the per-worker execution environment of one replay cell:
// the encoder's bit-line fan-out bound, the shared memo store of the
// cell's signature group, and the worker's scratch arena. The zero value
// is the standalone default — package-wide parallelism, no sharing,
// pooled scratch.
type replayEnv struct {
	encWorkers  int
	shared      *replay.MemoStore
	arena       *measureArena
	stream      *scheme.Stream    // per-benchmark shared transition stream
	fleetShared *scheme.FleetMemo // equal-(scheme, spec) repeat-outcome store
}

// measureArena is one sweep worker's reusable scratch, carried across
// every grid cell the worker measures.
type measureArena struct {
	enc core.Arena
	rep replay.Scratch
}

// schemeWorkload packs a capture and a cell's execution environment into
// the internal/scheme Workload every registered backend measures against.
func schemeWorkload(cap *replay.Capture, env replayEnv) *scheme.Workload {
	w := &scheme.Workload{
		Cap:         cap,
		EncWorkers:  env.encWorkers,
		Shared:      env.shared,
		Stream:      env.stream,
		FleetShared: env.fleetShared,
	}
	if env.arena != nil {
		w.EncArena = &env.arena.enc
		w.Scratch = &env.arena.rep
	}
	return w
}

// replayOneCtx evaluates one configuration against a capture by running
// the paper pipeline through internal/scheme — plan the encoding from the
// cached profile, statically verify it, then replay the trace through a
// fresh strict decoder. Cancellation is polled inside both the encoder's
// bit-line pool and the replay fetch loop; a cancelled cell returns
// ctx.Err() wrapped with the configuration. The replay.Result accompanies
// the Measurement so sweeps can aggregate the memo diagnostics.
func replayOneCtx(ctx context.Context, cap *replay.Capture, c Config, env replayEnv) (Measurement, replay.Result, error) {
	out, err := scheme.MeasurePaper(ctx, schemeWorkload(cap, env), c.coreConfig())
	if err != nil {
		return Measurement{}, replay.Result{}, fmt.Errorf("imtrans: %v: %w", c, err)
	}
	enc, dec, res := out.Enc, out.Dec, out.Rep
	m := Measurement{
		Config:          c,
		Instructions:    cap.Instructions,
		Baseline:        cap.BaselineTotal,
		Encoded:         res.Encoded,
		BusInvert:       cap.BusInvertTotal,
		Dictionary:      cap.DictionaryTotal,
		DictionaryBits:  cap.DictionaryBits,
		CoveragePercent: enc.Coverage(),
		CoveredBlocks:   len(enc.Plans),
		TTEntriesUsed:   enc.TTUsed,
		StaticPercent:   enc.StaticReduction(),
		OverheadBits:    dec.Overhead().TotalBits,
		PerLineBaseline: append([]uint64(nil), cap.BaselinePerLine...),
		PerLineEncoded:  res.PerLineEncoded,
	}
	m.Percent = power.Reduction(m.Baseline, m.Encoded)
	m.BusInvertPercent = power.Reduction(m.Baseline, m.BusInvert)
	m.DictionaryPercent = power.Reduction(m.Baseline, m.Dictionary)
	m.EnergySavedOnChipJ, _ = power.OnChip.Saved(m.Baseline, m.Encoded)
	m.EnergySavedOffChipJ, _ = power.OffChip.Saved(m.Baseline, m.Encoded)
	return m, res, nil
}
