package scheme

import (
	"context"
	"fmt"

	"imtrans/internal/code"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/replay"
	"imtrans/internal/transform"
)

// CoreConfig maps the paper knobs of a Params onto the encoder's
// core.Config. The root package's Config delegates here, so the mapping —
// which transformations AllFunctions selects, which strategy Exact picks —
// has exactly one definition.
func CoreConfig(p Params) core.Config {
	cc := core.Config{
		BlockSize:   p.BlockSize,
		TTEntries:   p.TTEntries,
		BBITEntries: p.BBITEntries,
		BusWidth:    p.BusWidth,
	}
	if p.AllFunctions {
		cc.Funcs = transform.Preferred()
	}
	if p.Exact {
		cc.Strategy = code.Exact
	}
	if p.Knapsack {
		cc.Selection = core.Knapsack
	}
	return cc.WithDefaults()
}

// PaperOutcome is the full artifact set of one paper-scheme measurement:
// the verified encoding, the decoder model it was replayed through, and
// the replay result with its memo diagnostics. The root measurement
// facade consumes all three; the registered scheme condenses them into a
// Result.
type PaperOutcome struct {
	Enc *core.Encoding
	Dec *hw.Decoder
	Rep replay.Result
}

// MeasurePaper runs the paper TT/BBIT pipeline on one workload: plan the
// encoding from the captured profile, statically verify it, then replay
// the trace through a fresh strict decoder. This is THE paper measurement
// — the root sweep machinery and the registered "paper" scheme both call
// it, so their results are bit-identical by construction. Errors are
// returned unwrapped; callers attach their configuration context.
func MeasurePaper(ctx context.Context, w *Workload, cc core.Config) (PaperOutcome, error) {
	encOpts := core.EncodeOpts{Workers: w.EncWorkers, Arena: w.EncArena}
	mOpts := replay.Options{Shared: w.Shared, Scratch: w.Scratch}
	enc, err := core.EncodeCtxOpts(ctx, w.Cap.Graph, w.Cap.Profile, cc, encOpts)
	if err != nil {
		return PaperOutcome{}, err
	}
	if err := enc.Verify(); err != nil {
		return PaperOutcome{}, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return PaperOutcome{}, err
	}
	dec.Strict = true
	res, err := replay.Measure(ctx, w.Cap, enc, dec, mOpts)
	if err != nil {
		return PaperOutcome{}, err
	}
	return PaperOutcome{Enc: enc, Dec: dec, Rep: res}, nil
}

// paperScheme registers the paper's TT/BBIT functional transformations as
// an ordinary backend.
type paperScheme struct{}

func init() { Register(paperScheme{}) }

func (paperScheme) Name() string { return "paper" }

func (paperScheme) Description() string {
	return "application-specific TT/BBIT functional transformations (the source paper)"
}

func (paperScheme) ConfigSpace() []Knob {
	return []Knob{
		{Name: "block_size", Doc: "bit-line block size k", Min: 2, Max: 16},
		{Name: "tt_entries", Doc: "transformation-table capacity (0 = 16)", Min: 0, Max: 4096},
		{Name: "bbit_entries", Doc: "covered-basic-block capacity (0 = 16)", Min: 0, Max: 4096},
		{Name: "all_functions", Doc: "search all 16 transformations", Min: 0, Max: 1},
		{Name: "exact", Doc: "exact DP chaining instead of greedy", Min: 0, Max: 1},
		{Name: "knapsack", Doc: "exact TT allocation instead of hottest-first", Min: 0, Max: 1},
		{Name: "bus_width", Doc: "bus lines modelled (0 = 32)", Min: 0, Max: 32},
	}
}

func (paperScheme) Validate(p Params) error {
	if p.BlockSize != 0 && (p.BlockSize < 2 || p.BlockSize > 16) {
		return fmt.Errorf("scheme: paper: block size %d out of range [2,16]", p.BlockSize)
	}
	if p.TTEntries < 0 || p.BBITEntries < 0 {
		return fmt.Errorf("scheme: paper: negative table capacity")
	}
	if p.BusWidth != 0 && (p.BusWidth < 1 || p.BusWidth > 32) {
		return fmt.Errorf("scheme: paper: bus width %d out of range [1,32]", p.BusWidth)
	}
	if p.Entries != 0 || p.ExtraLines != 0 {
		return fmt.Errorf("scheme: paper: entries/extra_lines are not paper knobs")
	}
	return nil
}

// PaperSpec renders the paper knobs compactly, matching the root
// Config.String form.
func PaperSpec(p Params) string {
	cc := CoreConfig(p)
	s := fmt.Sprintf("k=%d TT=%d", cc.BlockSize, cc.TTEntries)
	if p.AllFunctions {
		s += " funcs=16"
	}
	if p.Exact {
		s += " exact"
	}
	if p.Knapsack {
		s += " knapsack"
	}
	return s
}

func (paperScheme) Spec(p Params) string { return PaperSpec(p) }

func (ps paperScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := ps.Validate(p); err != nil {
		return nil, err
	}
	out, err := MeasurePaper(ctx, w, CoreConfig(p))
	if err != nil {
		return nil, fmt.Errorf("scheme: paper [%s]: %w", PaperSpec(p), err)
	}
	r := &Result{
		Scheme:       "paper",
		Spec:         PaperSpec(p),
		Instructions: w.Cap.Instructions,
		Baseline:     w.Cap.BaselineTotal,
		Transitions:  out.Rep.Encoded,
		OverheadBits: out.Dec.Overhead().TotalBits,
		Detail: map[string]float64{
			"coverage_percent": out.Enc.Coverage(),
			"covered_blocks":   float64(len(out.Enc.Plans)),
			"tt_entries_used":  float64(out.Enc.TTUsed),
			"static_percent":   out.Enc.StaticReduction(),
		},
	}
	r.finish()
	return r, nil
}
