package replay

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCaptureEncodeDecodeRoundTrip(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cp.Key = ProgramKey(cp.Base, cp.Words, 0, nil, "roundtrip")
	cp.BaselineTotal = 12345
	cp.BaselinePerLine = []uint64{1, 2, 3}
	cp.BusInvertTotal = 999
	cp.DictionaryTotal = 42
	cp.DictionaryBits = 8
	cp.DataLoads, cp.DataStores = 70, 30
	cp.DataTransitions, cp.DataBusInvert = 555, 444

	data, err := EncodeCapture(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != cp.Key || got.Base != cp.Base {
		t.Fatalf("decoded identity (%x, %d), want (%x, %d)", got.Key, got.Base, cp.Key, cp.Base)
	}
	if !reflect.DeepEqual(got.Words, cp.Words) {
		t.Fatal("decoded text image differs")
	}
	if !reflect.DeepEqual(got.Trace, cp.Trace) {
		t.Fatal("decoded trace differs")
	}
	if !reflect.DeepEqual(got.Profile, cp.Profile) {
		t.Fatal("decoded profile differs")
	}
	if got.Instructions != cp.Instructions ||
		got.BaselineTotal != cp.BaselineTotal ||
		!reflect.DeepEqual(got.BaselinePerLine, cp.BaselinePerLine) ||
		got.BusInvertTotal != cp.BusInvertTotal ||
		got.DictionaryTotal != cp.DictionaryTotal ||
		got.DictionaryBits != cp.DictionaryBits ||
		got.DataLoads != cp.DataLoads || got.DataStores != cp.DataStores ||
		got.DataTransitions != cp.DataTransitions || got.DataBusInvert != cp.DataBusInvert {
		t.Fatal("decoded statistics differ")
	}
	if got.Graph == nil {
		t.Fatal("decode did not rebuild the control-flow graph")
	}
}

// mutateEnvelope decodes an encoded capture to a generic map, applies
// mutate, and re-encodes — the cheap way to corrupt one field.
func mutateEnvelope(t *testing.T, data []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecodeCaptureRejectsDamage(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cp.Key = ProgramKey(cp.Base, cp.Words, 0, nil, "damage")
	data, err := EncodeCapture(cp)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mangle func(map[string]any)
	}{
		{"wrong magic", func(m map[string]any) { m["magic"] = "imtrans-capture/99" }},
		{"short key", func(m map[string]any) { m["key"] = "abcd" }},
		{"empty image", func(m map[string]any) { m["words"] = []any{}; m["profile"] = []any{} }},
		{"profile mismatch", func(m map[string]any) { m["profile"] = []any{1.0} }},
		{"broken trace", func(m map[string]any) { m["trace"] = "imtrans-trace 1 0 5 garbage" }},
		{"trace out of bounds", func(m map[string]any) {
			n := len(cp.Words) + 10
			m["trace"] = fmt.Sprintf("imtrans-trace 1 0 %d 1x%d", n, n-1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCapture(mutateEnvelope(t, data, tc.mangle)); err == nil {
				t.Fatal("damaged capture decoded without error")
			}
		})
	}
	if _, err := DecodeCapture(append(append([]byte(nil), data...), "{}"...)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := DecodeCapture(data[:len(data)/2]); err == nil {
		t.Fatal("truncated capture accepted")
	}
}

func TestCheckTraceBoundsNegativeExcursion(t *testing.T) {
	// First=2, then a -1x3 run dips to index -1: must be rejected even
	// though the net stays small.
	tr, err := ParseTrace([]byte("imtrans-trace 1 2 4 -1x3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraceBounds(tr, 100); err == nil {
		t.Fatal("negative excursion accepted")
	}
	// The same shape starting at 3 stays in [0,3]: fine.
	tr2, err := ParseTrace([]byte("imtrans-trace 1 3 4 -1x3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraceBounds(tr2, 100); err != nil {
		t.Fatalf("in-bounds trace rejected: %v", err)
	}
	// A repeat group whose drift walks out must be caught without
	// expanding it.
	tr3, err := ParseTrace([]byte("imtrans-trace 1 0 2000002 r1000000( 2x1 -1x1 ) 0x1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraceBounds(tr3, 100); err == nil {
		t.Fatal("drifting repeat group accepted")
	}
}

// mapTier is an in-memory Tier for tests.
type mapTier struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMapTier() *mapTier { return &mapTier{m: make(map[string][]byte)} }

func (t *mapTier) Get(name string) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := t.m[name]; ok {
		return append([]byte(nil), d...), nil
	}
	return nil, fmt.Errorf("mapTier: %q not found", name)
}

func (t *mapTier) Put(name string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[name] = append([]byte(nil), data...)
	t.puts++
	return nil
}

// TestCacheTierReadThroughWriteBehind: a capture measured through one
// cache lands in the tier; a second cache (a restarted process) serves
// it from the tier without re-profiling.
func TestCacheTierReadThroughWriteBehind(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	key := ProgramKey(cp.Base, cp.Words, 0, nil, "tier")
	tier := newMapTier()

	c1 := NewCache()
	c1.SetTier(tier)
	ran := 0
	got1, err := c1.GetOrCapture(key, func() (*Capture, error) {
		ran++
		cp.Key = key
		return cp, nil
	})
	if err != nil || ran != 1 {
		t.Fatalf("first capture: err=%v ran=%d", err, ran)
	}
	c1.FlushTier()
	if _, puts := c1.TierStats(); puts != 1 {
		t.Fatalf("write-behind puts = %d, want 1", puts)
	}

	c2 := NewCache()
	c2.SetTier(tier)
	got2, err := c2.GetOrCapture(key, func() (*Capture, error) {
		t.Fatal("tier hit should have skipped the profiling run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := c2.TierStats(); hits != 1 {
		t.Fatalf("tier hits = %d, want 1", hits)
	}
	if got2.Instructions != got1.Instructions || !reflect.DeepEqual(got2.Trace, got1.Trace) {
		t.Fatal("tier-served capture differs from the original")
	}
}

// TestCacheTierRejectsWrongKey: a tier payload carrying a different
// program's key (a mis-linked index entry, say) is ignored and the
// program re-profiles.
func TestCacheTierRejectsWrongKey(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	rightKey := ProgramKey(cp.Base, cp.Words, 0, nil, "right")
	wrongKey := ProgramKey(cp.Base, cp.Words, 0, nil, "wrong")
	cp.Key = wrongKey
	data, err := EncodeCapture(cp)
	if err != nil {
		t.Fatal(err)
	}
	tier := newMapTier()
	tier.Put(tierName(rightKey), data) // planted under the wrong name

	c := NewCache()
	c.SetTier(tier)
	ran := 0
	if _, err := c.GetOrCapture(rightKey, func() (*Capture, error) {
		ran++
		fresh := captureSource(t, streamLoopSrc)
		fresh.Key = rightKey
		return fresh, nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("mis-keyed tier payload was trusted (ran=%d)", ran)
	}
	if hits, _ := c.TierStats(); hits != 0 {
		t.Fatalf("tier hits = %d, want 0", hits)
	}
}

// v1Payload rewrites a current capture payload into the version 1
// envelope: the old magic and no data-bus fields.
func v1Payload(t *testing.T, data []byte) []byte {
	t.Helper()
	return mutateEnvelope(t, data, func(m map[string]any) {
		for _, f := range []string{"magic", "data_loads", "data_stores", "data_transitions", "data_bus_invert"} {
			if _, ok := m[f]; !ok {
				t.Fatalf("envelope has no %q field", f)
			}
		}
		m["magic"] = "imtrans-capture/1"
		delete(m, "data_loads")
		delete(m, "data_stores")
		delete(m, "data_transitions")
		delete(m, "data_bus_invert")
	})
}

// TestCaptureEnvelopeV2: the envelope is version 2 and carries the
// data-bus totals; a version 1 payload is rejected rather than decoded
// with zero data-bus totals.
func TestCaptureEnvelopeV2(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cp.Key = ProgramKey(cp.Base, cp.Words, 0, nil, "v2")
	cp.DataLoads, cp.DataStores, cp.DataTransitions, cp.DataBusInvert = 3, 4, 5, 6
	data, err := EncodeCapture(cp)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env["magic"] != "imtrans-capture/2" {
		t.Fatalf("magic = %v", env["magic"])
	}
	for f, want := range map[string]float64{"data_loads": 3, "data_stores": 4, "data_transitions": 5, "data_bus_invert": 6} {
		if env[f] != want {
			t.Errorf("%s = %v, want %v", f, env[f], want)
		}
	}
	if _, err := DecodeCapture(v1Payload(t, data)); err == nil {
		t.Fatal("version 1 payload decoded")
	}
}

// TestCacheTierV1IsMiss: a version 1 capture left in the tier by an older
// build is a miss — the program re-profiles and the fresh capture, with
// its data-bus totals, replaces it.
func TestCacheTierV1IsMiss(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	key := ProgramKey(cp.Base, cp.Words, 0, nil, "v1")
	cp.Key = key
	data, err := EncodeCapture(cp)
	if err != nil {
		t.Fatal(err)
	}
	tier := newMapTier()
	tier.Put(tierName(key), v1Payload(t, data))

	c := NewCache()
	c.SetTier(tier)
	ran := 0
	got, err := c.GetOrCapture(key, func() (*Capture, error) {
		ran++
		fresh := captureSource(t, streamLoopSrc)
		fresh.Key = key
		fresh.DataLoads, fresh.DataStores = 11, 12
		return fresh, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("version 1 tier payload was trusted (ran=%d)", ran)
	}
	if hits, _ := c.TierStats(); hits != 0 {
		t.Fatalf("tier hits = %d, want 0", hits)
	}
	if got.DataLoads != 11 || got.DataStores != 12 {
		t.Fatalf("served capture has data bus %d/%d, want the fresh 11/12", got.DataLoads, got.DataStores)
	}
	c.FlushTier()
	stored, err := tier.Get(tierName(key))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCapture(stored)
	if err != nil {
		t.Fatalf("re-profiled capture not written back as version 2: %v", err)
	}
	if back.DataLoads != 11 {
		t.Fatalf("written-back capture has %d loads", back.DataLoads)
	}
}
