package imtrans

import (
	"fmt"
	"math/bits"

	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/isa"
	"imtrans/internal/replay"
)

// TraceEntry is one annotated instruction fetch of a measured run.
type TraceEntry struct {
	PC            uint32
	Instruction   string // disassembly of the original instruction
	Original      uint32 // original machine word
	Bus           uint32 // encoded word actually on the bus
	Flips         int    // bus-line transitions caused by this fetch
	DecoderActive bool   // fetch decoded inside a covered block
}

// TraceText profiles the program once and renders its compressed fetch
// trace in the canonical one-line text form ("imtrans-trace 1 <first> <n>
// <ops...>"), under the same capture caching rule as MeasureProgram. The
// rendering is round-tripped through the validating parser before it is
// returned, so the output always re-loads; arbitrary edits to it fail the
// parser's envelope and fetch-count checks instead of replaying short.
func TraceText(p *Program, setup func(Memory) error) ([]byte, error) {
	cap, err := captureProgram(p, setup, "")
	if err != nil {
		return nil, err
	}
	text, err := cap.Trace.MarshalText()
	if err != nil {
		return nil, err
	}
	if _, err := replay.ParseTrace(text); err != nil {
		return nil, fmt.Errorf("imtrans: compressed trace failed validation: %w", err)
	}
	return text, nil
}

// TraceProgram profiles the program, plans the encoding, and walks the
// captured fetch trace with the decoder in the loop, checking every
// restored word and returning the first maxFetches fetches annotated —
// the debugging view of what the bus and the decoder are doing cycle by
// cycle. The capture follows MeasureProgram's caching rule.
func TraceProgram(p *Program, setup func(Memory) error, c Config, maxFetches int) ([]TraceEntry, error) {
	if maxFetches <= 0 {
		maxFetches = 100
	}
	cap, err := captureProgram(p, setup, "")
	if err != nil {
		return nil, err
	}
	enc, err := core.Encode(cap.Graph, cap.Profile, c.coreConfig())
	if err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true
	var out []TraceEntry
	var last uint32
	have := false
	var walkErr error
	cap.Trace.Indices(func(idx int32) {
		pc, word := cap.Base+4*uint32(idx), cap.Words[idx]
		busWord := enc.EncodedWords[idx]
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil && walkErr == nil {
			walkErr = err
		}
		if restored != word && walkErr == nil {
			walkErr = fmt.Errorf("imtrans: trace decoder mismatch at pc %#x", pc)
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
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}
