package scheme

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/baseline"
	"imtrans/internal/replay"
)

// This file holds the per-word reference coders the fleet batch kernels
// are held to. Each one walks the fully expanded fetch stream one word at
// a time through the plain coder of its scheme — no stream tables, no
// prefix sums, no repeat fast-forward, no memo — and builds the Result
// from its own counters.

// replayIndices expands the captured fetch trace in stream order, calling
// fn once per fetched text index. Cancellation polling follows the
// replay.Poller schedule — one context check per CancelCheckStride run
// steps, the first fetch uncounted — which the batch engine must match
// through Tick/TickN (TestFleetPollParity pins this).
func replayIndices(ctx context.Context, cap *replay.Capture, fn func(idx int32)) error {
	tr := cap.Trace
	if tr == nil || tr.N == 0 {
		return fmt.Errorf("scheme: capture has an empty trace")
	}
	idx := tr.First
	fn(idx)
	pol := replay.NewPoller(ctx)
	var ctxErr error
	tr.Runs(func(delta int32, count int64) bool {
		for i := int64(0); i < count; i++ {
			idx += delta
			fn(idx)
			if err := pol.Tick(); err != nil {
				ctxErr = err
				return false
			}
		}
		return true
	})
	return ctxErr
}

// replayWords is replayIndices over the fetched instruction words — the
// stream every data-bus scheme drives.
func replayWords(ctx context.Context, cap *replay.Capture, fn func(word uint32)) error {
	words := cap.Words
	return replayIndices(ctx, cap, func(idx int32) { fn(words[idx]) })
}

// scalarMeasure measures cap under the named fleet scheme with the
// per-word reference coder. Its Result carries no replay diagnostics
// (MemoHits, StreamShared), which only the batch engine produces.
func scalarMeasure(ctx context.Context, name string, cap *replay.Capture, p Params) (*Result, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	var r *Result
	switch name {
	case "businvert":
		r, err = scalarBusInvert(ctx, cap, p)
	case "dictionary":
		r, err = scalarDictionary(ctx, cap, p)
	case "codebook":
		r, err = scalarCodebook(ctx, cap, p)
	case "lwc":
		r, err = scalarLWC(ctx, cap, p)
	case "gray", "t0":
		r, err = scalarAddrBus(ctx, name, cap, p)
	default:
		return nil, fmt.Errorf("scheme: no scalar reference coder for %q", name)
	}
	if err != nil {
		return nil, err
	}
	r.Scheme = name
	if r.Spec == "" {
		r.Spec = s.Spec(p)
	}
	r.Instructions = cap.Instructions
	r.finish()
	return r, nil
}

func scalarBusInvert(ctx context.Context, cap *replay.Capture, p Params) (*Result, error) {
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	bi := baseline.NewBusInvert(width)
	if err := replayWords(ctx, cap, func(word uint32) {
		bi.Transfer(word)
	}); err != nil {
		return nil, err
	}
	data, inv := bi.DataTransitions(), bi.InvertTransitions()
	return &Result{
		Baseline:      cap.BaselineTotal,
		Transitions:   data + inv,
		ExtraBusLines: 1,
		Detail: map[string]float64{
			"data_transitions":   float64(data),
			"invert_transitions": float64(inv),
		},
	}, nil
}

func scalarDictionary(ctx context.Context, cap *replay.Capture, p Params) (*Result, error) {
	entries := p.Entries
	if entries == 0 {
		entries = 256
	}
	dict := baseline.BuildDictionary(cap.Words, cap.Profile, entries)
	if err := replayWords(ctx, cap, func(word uint32) {
		dict.Transfer(word)
	}); err != nil {
		return nil, err
	}
	return &Result{
		Baseline:      cap.BaselineTotal,
		Transitions:   dict.Transitions(),
		OverheadBits:  dict.TableBits(),
		ExtraBusLines: 1,
		Detail: map[string]float64{
			"hit_rate_percent": dict.HitRate(),
			"index_bits":       float64(dict.IndexBits()),
			"entries":          float64(dict.Entries()),
		},
	}, nil
}

func scalarCodebook(ctx context.Context, cap *replay.Capture, p Params) (*Result, error) {
	ranked := rankWords(cap)
	entries := p.Entries
	capped := entries > 0 && entries < len(ranked)
	if entries == 0 || entries > len(ranked) {
		entries = len(ranked)
	}
	book := codewords(entries)

	// Per-text-index codeword table: code[i] is the driven value for a
	// fetch of text index i, mapped[i] whether it came from the book.
	rank := make(map[uint32]int, len(ranked))
	for i, wf := range ranked {
		rank[wf.word] = i
	}
	code := make([]uint32, len(cap.Words))
	mapped := make([]bool, len(cap.Words))
	for i, word := range cap.Words {
		if r := rank[word]; r < entries {
			code[i], mapped[i] = book[r], true
		} else {
			code[i] = word
		}
	}

	var (
		trans, hits uint64
		started     bool
		last        uint32
		lastFlag    bool
	)
	if err := replayIndices(ctx, cap, func(idx int32) {
		drive, hit := code[idx], mapped[idx]
		if hit {
			hits++
		}
		if !started {
			started, last, lastFlag = true, drive, hit
			return
		}
		trans += uint64(bits.OnesCount32(drive ^ last))
		if capped && hit != lastFlag {
			trans++ // the mapped-flag line
		}
		last, lastFlag = drive, hit
	}); err != nil {
		return nil, err
	}

	extra := 0
	if capped {
		extra = 1
	}
	return &Result{
		Spec:          fmt.Sprintf("entries=%d", entries),
		Baseline:      cap.BaselineTotal,
		Transitions:   trans,
		OverheadBits:  entries * 64,
		ExtraBusLines: extra,
		Detail: map[string]float64{
			"entries":          float64(entries),
			"hit_rate_percent": 100 * float64(hits) / float64(max(cap.Trace.N, 1)),
		},
	}, nil
}

func scalarLWC(ctx context.Context, cap *replay.Capture, p Params) (*Result, error) {
	extraLines := p.ExtraLines
	if extraLines == 0 {
		extraLines = lwcDefaultExtraLines
	}
	lines := 32 + extraLines
	ranked := rankWords(cap)
	entries := p.Entries
	capped := entries > 0 && entries < len(ranked)
	if entries == 0 || entries > len(ranked) {
		entries = len(ranked)
	}
	book := lwcCodewords(entries, lines)
	if len(book) < entries {
		return nil, fmt.Errorf("scheme: lwc: %d lines cannot host %d codewords", lines, entries)
	}

	rank := make(map[uint32]int, len(ranked))
	for i, wf := range ranked {
		rank[wf.word] = i
	}
	// diff[i] is the difference codeword of text index i; mapped[i] is
	// false for escape (raw absolute) transfers of a capped book.
	diff := make([]uint64, len(cap.Words))
	mapped := make([]bool, len(cap.Words))
	for i, word := range cap.Words {
		if r := rank[word]; r < entries {
			diff[i], mapped[i] = book[r], true
		} else {
			diff[i] = uint64(word)
		}
	}

	var (
		trans, weightSum, maxWeight, escapes uint64
		started                              bool
		bus                                  uint64 // low `lines` bits are the bus state
	)
	if err := replayIndices(ctx, cap, func(idx int32) {
		if !started {
			started = true
			bus = diff[idx] // codeword, or raw word with upper lines clear
			if !mapped[idx] {
				escapes++
			}
			return
		}
		if mapped[idx] {
			next := bus ^ diff[idx]
			wt := uint64(bits.OnesCount64(diff[idx]))
			trans += wt
			weightSum += wt
			if wt > maxWeight {
				maxWeight = wt
			}
			bus = next
			return
		}
		// Escape: raw word absolute on the low 32 lines, upper redundant
		// lines cleared, escape line toggled.
		escapes++
		next := diff[idx]
		trans += uint64(bits.OnesCount64(bus^next)) + 1
		bus = next
	}); err != nil {
		return nil, err
	}

	extra := extraLines
	if capped {
		extra++ // the escape line
	}
	return &Result{
		Spec:          fmt.Sprintf("lines=%d entries=%d", lines, entries),
		Baseline:      cap.BaselineTotal,
		Transitions:   trans,
		OverheadBits:  entries * (lines + 32),
		ExtraBusLines: extra,
		Detail: map[string]float64{
			"entries":        float64(entries),
			"avg_weight":     float64(weightSum) / float64(max(cap.Trace.N, 1)),
			"max_weight":     float64(maxWeight),
			"escape_percent": 100 * float64(escapes) / float64(max(cap.Trace.N, 1)),
		},
	}, nil
}

func scalarAddrBus(ctx context.Context, name string, cap *replay.Capture, p Params) (*Result, error) {
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	bus := baseline.NewAddrBus(width, 4)
	if err := replayIndices(ctx, cap, func(idx int32) {
		bus.Transfer(cap.Base + uint32(idx)*4)
	}); err != nil {
		return nil, err
	}
	picked, extra := bus.Gray(), 0
	if name == "t0" {
		picked, extra = bus.T0(), 1 // the INC line
	}
	return &Result{
		Baseline:      bus.Binary(),
		Transitions:   picked,
		ExtraBusLines: extra,
		Detail:        map[string]float64{"bus_addr": 1},
	}, nil
}
