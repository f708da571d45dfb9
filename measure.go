package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/core"
	"imtrans/internal/scheme"
)

// Config selects the encoding parameters of one measurement, mirroring the
// paper's design space. The zero value is the paper's default evaluation
// point: block size 5, a 16-entry TT, the canonical 8 transformations,
// greedy chaining, a 32-bit bus.
type Config struct {
	BlockSize    int  // k (2..16); 0 means 5
	TTEntries    int  // transformation-table capacity; 0 means 16
	BBITEntries  int  // covered-basic-block capacity; 0 means 16
	AllFunctions bool // search all 16 transformations (4-bit selectors)
	Exact        bool // exact DP chaining instead of the paper's greedy
	Knapsack     bool // exact TT allocation instead of hottest-first
	BusWidth     int  // bus lines modelled; 0 means 32
}

// schemeParams maps the Config onto the pluggable-scheme parameter union;
// the core.Config mapping itself lives in internal/scheme, next to the
// registered paper backend, so both paths share one definition.
func (c Config) schemeParams() scheme.Params {
	return scheme.Params{
		BlockSize:    c.BlockSize,
		TTEntries:    c.TTEntries,
		BBITEntries:  c.BBITEntries,
		AllFunctions: c.AllFunctions,
		Exact:        c.Exact,
		Knapsack:     c.Knapsack,
		BusWidth:     c.BusWidth,
	}
}

func (c Config) coreConfig() core.Config {
	return scheme.CoreConfig(c.schemeParams())
}

// String renders the configuration compactly.
func (c Config) String() string {
	cc := c.coreConfig()
	s := fmt.Sprintf("k=%d TT=%d", cc.BlockSize, cc.TTEntries)
	if c.AllFunctions {
		s += " funcs=16"
	}
	if c.Exact {
		s += " exact"
	}
	if c.Knapsack {
		s += " knapsack"
	}
	return s
}

// Measurement reports the dynamic instruction-bus behaviour of one
// configuration, measured with the decoder hardware model in the fetch
// loop and every restored instruction verified against the original.
type Measurement struct {
	Config       Config
	Instructions uint64

	Baseline uint64  // bus transitions without encoding
	Encoded  uint64  // bus transitions with the power encoding
	Percent  float64 // reduction, percent (the paper's headline number)

	BusInvert        uint64  // bus-invert transitions on the same stream (incl. invert line)
	BusInvertPercent float64 // bus-invert reduction vs baseline

	// Dictionary-compression comparator (256 most frequent instructions,
	// hit flag + index lines driven, misses raw) on the same stream, and
	// the decompression-table storage it needs at the processor side.
	Dictionary        uint64
	DictionaryPercent float64
	DictionaryBits    int

	CoveragePercent float64 // dynamic fetches from covered blocks
	CoveredBlocks   int
	TTEntriesUsed   int
	StaticPercent   float64 // static (layout-order) reduction in covered blocks

	OverheadBits int // decoder storage (TT + BBIT)

	EnergySavedOnChipJ  float64 // energy saved with the on-chip bus model
	EnergySavedOffChipJ float64 // and with the off-chip (cross-pin) model

	// Per-bus-line transition counts, baseline and encoded — the
	// "vertical" view the technique operates on (line 0 first).
	PerLineBaseline []uint64
	PerLineEncoded  []uint64
}

// ReductionPercent is Percent under its headline name.
func (m Measurement) ReductionPercent() float64 { return m.Percent }

// MeasureProgram runs the full experimental pipeline on a program:
//
//  1. one profiling run captures the compressed fetch trace, the
//     per-instruction execution profile and the configuration-independent
//     bus totals (baseline, Bus-Invert, dictionary);
//  2. each configuration's encoding is planned from the profile and
//     statically verified;
//  3. the trace is replayed against every configuration's encoded image,
//     with the fetch-side decoder model restoring each covered
//     instruction and the harness checking it against the original word.
//
// Without a setup callback the capture is shared through the process-wide
// capture cache, keyed by program content. setup, if non-nil, initialises
// data memory before the run; such a capture is never cached, since the
// key cannot see what the callback writes. Configurations are evaluated
// concurrently (see SetParallelism) with deterministic output ordering.
func MeasureProgram(p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	return MeasureProgramCtx(context.Background(), p, setup, cfgs...)
}

// MeasureProgramCtx is MeasureProgram with cooperative cancellation: the
// context is polled inside the encoder's bit-line pool and the replay
// fetch loop, so cancellation takes effect within one task granule. A
// cancelled run returns ctx.Err() (possibly wrapped) and no results.
func MeasureProgramCtx(ctx context.Context, p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	return replayMeasureCtx(ctx, p, setup, "", cfgs...)
}
