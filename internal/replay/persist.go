package replay

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"imtrans/internal/cfg"
)

// A Tier is a persistent layer under the capture cache — in practice the
// content-addressed store, but the interface keeps replay free of the
// dependency. Get returns the payload stored under name or an error
// (any error is treated as a miss: the capture is re-derived); Put
// stores it.
type Tier interface {
	Get(name string) ([]byte, error)
	Put(name string, data []byte) error
}

// tierName is the store name for a capture: captures are addressed by
// their program content hash, so every replica derives the same name.
func tierName(key Key) string { return "capture/" + hex.EncodeToString(key[:]) }

// SetTier installs (or, with nil, removes) the persistent tier under the
// cache and returns the previous one. The cache reads through it before
// profiling and writes freshly captured programs behind it
// asynchronously; call FlushTier before tearing the tier down.
func (c *Cache) SetTier(t Tier) Tier {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.tier
	c.tier = t
	return prev
}

// FlushTier blocks until every write-behind put issued so far has
// finished. Shutdown paths call it so a capture measured moments before
// a drain still lands in the store.
func (c *Cache) FlushTier() { c.tierWG.Wait() }

// TierStats reports read-through hits and write-behind puts.
func (c *Cache) TierStats() (hits, puts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tierHits, c.tierPuts
}

// captureEnvelope is the persisted form of a Capture. The trace rides in
// its canonical text form and the control-flow graph is omitted entirely
// — it is a pure function of (base, words) and is rebuilt at decode.
type captureEnvelope struct {
	Magic           string   `json:"magic"`
	Key             string   `json:"key"`
	Base            uint32   `json:"base"`
	Words           []uint32 `json:"words"`
	Trace           string   `json:"trace"`
	Profile         []uint64 `json:"profile"`
	Instructions    uint64   `json:"instructions"`
	BaselineTotal   uint64   `json:"baseline_total"`
	BaselinePerLine []uint64 `json:"baseline_per_line"`
	BusInvertTotal  uint64   `json:"bus_invert_total"`
	DictionaryTotal uint64   `json:"dictionary_total"`
	DictionaryBits  int      `json:"dictionary_bits"`
	DataLoads       uint64   `json:"data_loads"`
	DataStores      uint64   `json:"data_stores"`
	DataTransitions uint64   `json:"data_transitions"`
	DataBusInvert   uint64   `json:"data_bus_invert"`
}

// captureMagic identifies a persisted capture payload. Version 2 added
// the data-bus totals; a version 1 payload lacks them, so it is rejected
// (a tier miss) and the program is profiled again.
const captureMagic = "imtrans-capture/2"

// EncodeCapture serialises a capture for the persistent tier.
func EncodeCapture(c *Capture) ([]byte, error) {
	traceText, err := c.Trace.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return json.Marshal(captureEnvelope{
		Magic:           captureMagic,
		Key:             hex.EncodeToString(c.Key[:]),
		Base:            c.Base,
		Words:           c.Words,
		Trace:           string(traceText),
		Profile:         c.Profile,
		Instructions:    c.Instructions,
		BaselineTotal:   c.BaselineTotal,
		BaselinePerLine: c.BaselinePerLine,
		BusInvertTotal:  c.BusInvertTotal,
		DictionaryTotal: c.DictionaryTotal,
		DictionaryBits:  c.DictionaryBits,
		DataLoads:       c.DataLoads,
		DataStores:      c.DataStores,
		DataTransitions: c.DataTransitions,
		DataBusInvert:   c.DataBusInvert,
	})
}

// DecodeCapture strictly decodes a persisted capture: unknown fields,
// trailing data, a malformed trace, a profile that does not line up with
// the text image, or a trace that indexes outside it all fail — a
// corrupt or stale payload is rejected here and the caller re-profiles.
// The control-flow graph is rebuilt from the decoded image, so a decoded
// capture replays exactly like a fresh one.
func DecodeCapture(data []byte) (*Capture, error) {
	var env captureEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("replay: decoding capture: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("replay: trailing data after capture")
	}
	if env.Magic != captureMagic {
		return nil, fmt.Errorf("replay: not a capture payload (magic %q)", env.Magic)
	}
	var key Key
	if len(env.Key) != 2*len(key) {
		return nil, fmt.Errorf("replay: capture key %q has wrong length", env.Key)
	}
	if _, err := hex.Decode(key[:], []byte(env.Key)); err != nil {
		return nil, fmt.Errorf("replay: capture key: %w", err)
	}
	if len(env.Words) == 0 {
		return nil, fmt.Errorf("replay: capture has an empty text image")
	}
	if len(env.Profile) != len(env.Words) {
		return nil, fmt.Errorf("replay: profile covers %d words, image has %d", len(env.Profile), len(env.Words))
	}
	tr, err := ParseTrace([]byte(env.Trace))
	if err != nil {
		return nil, err
	}
	if err := checkTraceBounds(tr, len(env.Words)); err != nil {
		return nil, err
	}
	g, err := cfg.Build(env.Base, env.Words)
	if err != nil {
		return nil, fmt.Errorf("replay: rebuilding graph: %w", err)
	}
	return &Capture{
		Key:             key,
		Base:            env.Base,
		Words:           env.Words,
		Graph:           g,
		Trace:           tr,
		Profile:         env.Profile,
		Instructions:    env.Instructions,
		BaselineTotal:   env.BaselineTotal,
		BaselinePerLine: env.BaselinePerLine,
		BusInvertTotal:  env.BusInvertTotal,
		DictionaryTotal: env.DictionaryTotal,
		DictionaryBits:  env.DictionaryBits,
		DataLoads:       env.DataLoads,
		DataStores:      env.DataStores,
		DataTransitions: env.DataTransitions,
		DataBusInvert:   env.DataBusInvert,
	}, nil
}

// boundLimit saturates the trace-range arithmetic: any intermediate
// offset beyond it is out of every conceivable text image, so the check
// fails without risking int64 overflow on hostile repeat counts.
const boundLimit = int64(1) << 40

// checkTraceBounds proves every index the trace will ever fetch lies in
// [0, words) — in time proportional to the op count, not the fetch
// count, by computing each op list's (net displacement, min offset, max
// offset) recursively. Replay then never bounds-checks in the hot loop.
func checkTraceBounds(t *Trace, words int) error {
	_, lo, hi, err := opsRange(t.Ops)
	if err != nil {
		return err
	}
	first := int64(t.First)
	if first+lo < 0 || first+hi >= int64(words) {
		return fmt.Errorf("replay: trace reaches indices [%d, %d], image has %d words",
			first+lo, first+hi, words)
	}
	return nil
}

// mulBounded multiplies with both overflow and magnitude checked: any
// product whose absolute value exceeds boundLimit is already outside
// every possible text image, so the bounds check can fail right here.
func mulBounded(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	r := a * b
	if r/b != a || r < -boundLimit || r > boundLimit {
		return 0, fmt.Errorf("replay: trace offsets exceed ±%d", boundLimit)
	}
	return r, nil
}

// opsRange returns the net displacement of one pass over ops plus the
// minimum and maximum offsets reached relative to the starting index
// (both include 0, the starting point itself).
func opsRange(ops []Op) (net, lo, hi int64, err error) {
	var cur int64
	for i := range ops {
		op := &ops[i]
		var oNet, oLo, oHi int64
		if op.Repeat > 0 {
			bNet, bLo, bHi, berr := opsRange(op.Body)
			if berr != nil {
				return 0, 0, 0, berr
			}
			// Iteration k starts at offset k*bNet; the extremes are hit
			// on the first or last iteration depending on bNet's sign.
			drift, derr := mulBounded(op.Repeat-1, bNet)
			if derr != nil {
				return 0, 0, 0, derr
			}
			if oNet, err = mulBounded(op.Repeat, bNet); err != nil {
				return 0, 0, 0, err
			}
			oLo, oHi = bLo, bHi
			if drift < 0 {
				oLo += drift
			} else {
				oHi += drift
			}
		} else {
			if oNet, err = mulBounded(int64(op.Delta), op.Count); err != nil {
				return 0, 0, 0, err
			}
			if oNet < 0 {
				oLo = oNet
			} else {
				oHi = oNet
			}
		}
		if cur+oLo < lo {
			lo = cur + oLo
		}
		if cur+oHi > hi {
			hi = cur + oHi
		}
		cur += oNet
		if cur < -boundLimit || cur > boundLimit || lo < -boundLimit || hi > boundLimit {
			return 0, 0, 0, fmt.Errorf("replay: trace offsets exceed ±%d", boundLimit)
		}
	}
	return cur, lo, hi, nil
}
