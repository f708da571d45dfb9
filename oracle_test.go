package imtrans

// The two-run simulate pipelines MeasureProgram, MeasurePhased and
// TraceProgram used before they read the capture. Each runs the ISS
// again with the decoder model and the comparator coders in the fetch
// loop, so they are independent of the trace compression, the replay
// engine and the batch kernels; the *MatchesSimulate tests hold the
// production paths to them field for field.

import (
	"fmt"
	"math/bits"

	"imtrans/internal/baseline"
	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/isa"
	"imtrans/internal/power"
	"imtrans/internal/trace"
)

// simulateMeasure is the reference measurement pipeline:
//
//  1. a profiling run measures baseline bus transitions, the bus-invert
//     comparator, and the per-instruction execution profile;
//  2. each configuration's encoding is planned from the profile and
//     statically verified;
//  3. a second, identical execution measures every configuration's encoded
//     bus simultaneously, with the fetch-side decoder model restoring each
//     instruction and the harness checking it against the original word.
//
// setup, if non-nil, initialises data memory before each run (both runs
// must see identical input so the fetch streams coincide).
func simulateMeasure(p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	if len(cfgs) == 0 {
		cfgs = []Config{{}}
	}
	// Run 1: profile + baseline.
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	baseBus := trace.NewBus(32)
	busInv := baseline.NewBusInvert(32)
	m1.OnFetch = func(pc, word uint32) {
		baseBus.Transfer(word)
		busInv.Transfer(word)
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: profiling run: %w", err)
	}
	profile := m1.Profile()

	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}
	dict := baseline.BuildDictionary(p.Text, profile, 256)

	// Plan and statically verify every configuration.
	type sink struct {
		cfg Config
		enc *core.Encoding
		dec *hw.Decoder
		bus *trace.Bus
	}
	sinks := make([]*sink, len(cfgs))
	for i, c := range cfgs {
		enc, err := core.Encode(g, profile, c.coreConfig())
		if err != nil {
			return nil, fmt.Errorf("imtrans: %v: %w", c, err)
		}
		if err := enc.Verify(); err != nil {
			return nil, fmt.Errorf("imtrans: %v: %w", c, err)
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			return nil, fmt.Errorf("imtrans: %v: %w", c, err)
		}
		dec.Strict = true
		sinks[i] = &sink{cfg: c, enc: enc, dec: dec, bus: trace.NewBus(32)}
	}

	// Run 2: measure all encoded buses in one simulation.
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	var hookErr error
	base := p.TextBase
	m2.OnFetch = func(pc, word uint32) {
		idx := int(pc-base) / 4
		dict.Transfer(word)
		for _, s := range sinks {
			busWord := s.enc.EncodedWords[idx]
			s.bus.Transfer(busWord)
			restored, err := s.dec.OnFetch(pc, busWord)
			if err != nil && hookErr == nil {
				hookErr = fmt.Errorf("imtrans: %v: %w", s.cfg, err)
			}
			if restored != word && hookErr == nil {
				hookErr = fmt.Errorf("imtrans: %v: decoder restored %#08x at pc %#x, want %#08x",
					s.cfg, restored, pc, word)
			}
		}
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: measurement run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	if m2.InstCount != m1.InstCount {
		return nil, fmt.Errorf("imtrans: runs diverged (%d vs %d instructions); setup must be deterministic",
			m1.InstCount, m2.InstCount)
	}

	out := make([]Measurement, len(sinks))
	for i, s := range sinks {
		res := Measurement{
			Config:          s.cfg,
			Instructions:    m2.InstCount,
			Baseline:        baseBus.Total(),
			Encoded:         s.bus.Total(),
			BusInvert:       busInv.Total(),
			CoveragePercent: s.enc.Coverage(),
			CoveredBlocks:   len(s.enc.Plans),
			TTEntriesUsed:   s.enc.TTUsed,
			StaticPercent:   s.enc.StaticReduction(),
			OverheadBits:    s.dec.Overhead().TotalBits,
			PerLineBaseline: baseBus.PerLine(),
			PerLineEncoded:  s.bus.PerLine(),
		}
		res.Dictionary = dict.Transitions()
		res.DictionaryBits = dict.TableBits()
		res.Percent = power.Reduction(res.Baseline, res.Encoded)
		res.BusInvertPercent = power.Reduction(res.Baseline, res.BusInvert)
		res.DictionaryPercent = power.Reduction(res.Baseline, res.Dictionary)
		res.EnergySavedOnChipJ, _ = power.OnChip.Saved(res.Baseline, res.Encoded)
		res.EnergySavedOffChipJ, _ = power.OffChip.Saved(res.Baseline, res.Encoded)
		out[i] = res
	}
	return out, nil
}

// simulatePhased is the reference phase-switched pipeline: a profiling
// run, the two-run single-deployment reference, and a third run that
// switches decoder tables whenever the fetch stream enters a block owned
// by a different phase.
func simulatePhased(p *Program, setup func(Memory) error, c Config) (*PhasedMeasurement, error) {
	// Run 1: profile + baseline.
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	baseBus := trace.NewBus(32)
	m1.OnFetch = func(pc, word uint32) { baseBus.Transfer(word) }
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: phased profiling run: %w", err)
	}
	profile := m1.Profile()

	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}

	// One encoding per outermost loop: restrict the profile to the loop's
	// blocks so each phase competes only with itself for table capacity.
	type phase struct {
		enc *core.Encoding
		dec *hw.Decoder
	}
	var phases []phase
	blockPhase := map[int]int{} // cfg block index -> phase index
	merged := append([]uint32(nil), p.Text...)
	for _, loop := range g.OutermostLoops() {
		masked := make([]uint64, len(profile))
		for _, bi := range loop.Blocks {
			b := g.Blocks[bi]
			start := int(b.Start-g.Base) / 4
			copy(masked[start:start+b.Count], profile[start:start+b.Count])
		}
		enc, err := core.Encode(g, masked, c.coreConfig())
		if err != nil {
			return nil, err
		}
		if len(enc.Plans) == 0 {
			continue // loop never ran or has nothing encodable
		}
		if err := enc.Verify(); err != nil {
			return nil, err
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			return nil, err
		}
		dec.Strict = true
		pi := len(phases)
		for _, plan := range enc.Plans {
			if prev, dup := blockPhase[plan.Block]; dup {
				return nil, fmt.Errorf("imtrans: block %d claimed by phases %d and %d", plan.Block, prev, pi)
			}
			blockPhase[plan.Block] = pi
			start := int(plan.StartPC-g.Base) / 4
			copy(merged[start:start+plan.Count], plan.Encoded)
		}
		phases = append(phases, phase{enc, dec})
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("imtrans: no encodable loops found")
	}
	// Start-PC dispatch: entering a covered block may switch phases.
	phaseAt := map[uint32]int{}
	for bi, pi := range blockPhase {
		phaseAt[g.Blocks[bi].Start] = pi
	}

	// Reference: the single-deployment measurement on the same program.
	single, err := simulateMeasure(p, setup, c)
	if err != nil {
		return nil, err
	}

	// Run 2: phase-switched measurement. Every entry into a phase other
	// than the currently loaded one costs that phase's table upload.
	perPhaseUpload := make([]uint64, len(phases))
	for i, ph := range phases {
		perPhaseUpload[i] = uint64(ph.dec.Overhead().UploadWords)
	}
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	encBus := trace.NewBus(32)
	current := -1
	var switches, uploads uint64
	var hookErr error
	m2.OnFetch = func(pc, word uint32) {
		busWord := merged[int(pc-p.TextBase)/4]
		encBus.Transfer(busWord)
		if pi, ok := phaseAt[pc]; ok && pi != current {
			if current >= 0 {
				switches++
			}
			uploads += perPhaseUpload[pi]
			current = pi
		}
		if current < 0 {
			return // before the first hot spot: everything passes through
		}
		restored, err := phases[current].dec.OnFetch(pc, busWord)
		if err != nil && hookErr == nil {
			hookErr = err
		}
		if restored != word && hookErr == nil {
			hookErr = fmt.Errorf("imtrans: phase %d restored %#08x at pc %#x, want %#08x",
				current, restored, pc, word)
		}
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: phased measurement run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}

	res := &PhasedMeasurement{
		Config:        c,
		Phases:        len(phases),
		Instructions:  m2.InstCount,
		Baseline:      baseBus.Total(),
		Encoded:       encBus.Total(),
		SinglePercent: single[0].Percent,
		Switches:      switches,
	}
	res.Percent = power.Reduction(res.Baseline, res.Encoded)
	res.UploadWords = uploads
	for _, ph := range phases {
		if ph.enc.TTUsed > res.TTEntriesMax {
			res.TTEntriesMax = ph.enc.TTUsed
		}
	}
	return res, nil
}

// simulateTrace is the reference trace view: a profiling run, then a
// second run with the strict decoder in the fetch loop, annotating the
// first maxFetches fetches.
func simulateTrace(p *Program, setup func(Memory) error, c Config, maxFetches int) ([]TraceEntry, error) {
	if maxFetches <= 0 {
		maxFetches = 100
	}
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: trace profiling run: %w", err)
	}
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}
	enc, err := core.Encode(g, m1.Profile(), c.coreConfig())
	if err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	var out []TraceEntry
	var last uint32
	have := false
	var hookErr error
	m2.OnFetch = func(pc, word uint32) {
		busWord := enc.EncodedWords[int(pc-p.TextBase)/4]
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil && hookErr == nil {
			hookErr = err
		}
		if restored != word && hookErr == nil {
			hookErr = fmt.Errorf("imtrans: trace decoder mismatch at pc %#x", pc)
		}
		if len(out) < maxFetches {
			flips := 0
			if have {
				flips = bits.OnesCount32(busWord ^ last)
			}
			out = append(out, TraceEntry{
				PC:            pc,
				Instruction:   isa.Disassemble(word),
				Original:      word,
				Bus:           busWord,
				Flips:         flips,
				DecoderActive: dec.Active() || busWord != word,
			})
		}
		last, have = busWord, true
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: trace run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	return out, nil
}
