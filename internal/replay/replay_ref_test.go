package replay

import (
	"fmt"
	"reflect"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/cpu"
	"imtrans/internal/hw"
	"imtrans/internal/mem"
	"imtrans/internal/trace"
	"imtrans/internal/transform"
	"imtrans/internal/workloads"
)

// refMeasure is the definition of a measurement: expand the trace fetch
// by fetch, put every encoded word on a 32-line bus model, drive the
// decoder with it and check every restored word against the original
// image. Measure must produce the same totals through its run sums,
// block memos and repeat fast-forward.
func refMeasure(cap *Capture, enc *core.Encoding, dec *hw.Decoder) (Result, error) {
	bus := trace.NewBus(32)
	var err error
	cap.Trace.Indices(func(idx int32) {
		if err != nil {
			return
		}
		if idx < 0 || int(idx) >= len(enc.EncodedWords) {
			err = fmt.Errorf("trace index %d outside text image", idx)
			return
		}
		w := enc.EncodedWords[idx]
		bus.Transfer(w)
		pc := cap.Base + uint32(idx)<<2
		restored, ferr := dec.OnFetch(pc, w)
		if ferr != nil {
			err = ferr
		} else if restored != cap.Words[idx] {
			err = fmt.Errorf("decoder restored %#08x at pc %#x, want %#08x", restored, pc, cap.Words[idx])
		}
	})
	return Result{Encoded: bus.Total(), PerLineEncoded: bus.PerLine()}, err
}

// kernelCaptures profiles the nine workload kernels at test scale, with
// the CPU's fetch sink feeding the trace builder as the facade's capture
// run does.
func kernelCaptures(t *testing.T) map[string]*Capture {
	t.Helper()
	caps := make(map[string]*Capture)
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		p := w.Fill(kernelTestParams[w.Name])
		obj, err := asm.Assemble(w.Source(p))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m := mem.New()
		for i, by := range obj.Data {
			m.StoreByte(obj.DataBase+uint32(i), by)
		}
		if err := w.Setup(m, p); err != nil {
			t.Fatalf("%s: setup: %v", w.Name, err)
		}
		c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b := NewBuilder()
		c.Fetches = b
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g, err := cfg.Build(obj.TextBase, obj.TextWords)
		if err != nil {
			t.Fatalf("%s: cfg: %v", w.Name, err)
		}
		caps[w.Name] = &Capture{
			Base:         obj.TextBase,
			Words:        obj.TextWords,
			Graph:        g,
			Trace:        b.Trace(),
			Profile:      append([]uint64(nil), c.Profile()...),
			Instructions: c.InstCount,
		}
	}
	return caps
}

// refConfigs are the encodings the reference check replays: the default,
// other block sizes and table capacities, the knapsack selection and a
// reduced transformation set.
var refConfigs = []core.Config{
	{},
	{BlockSize: 4},
	{BlockSize: 7, TTEntries: 32},
	{TTEntries: 4},
	{Selection: core.Knapsack},
	{Funcs: transform.Canonical8[:4]},
}

// newDecoder encodes cp under cfg and returns the encoding with a fresh
// strict decoder, armed with parity protection when protect is set.
func newDecoder(t *testing.T, cp *Capture, cfg core.Config, protect bool) (*core.Encoding, *hw.Decoder) {
	t.Helper()
	enc, err := core.Encode(cp.Graph, cp.Profile, cfg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	dec.Strict = true
	if protect {
		dec.EnableProtection()
	}
	return enc, dec
}

// checkAgainstRef measures cp under cfg with opts and with the per-fetch
// reference, each on its own fresh decoder, and fails on any difference
// in the totals. It returns the Measure result for memo assertions.
func checkAgainstRef(t *testing.T, name string, cp *Capture, cfg core.Config, protect bool, opts Options) Result {
	t.Helper()
	enc, dec := newDecoder(t, cp, cfg, protect)
	got, err := Measure(nil, cp, enc, dec, opts)
	if err != nil {
		t.Fatalf("%s %+v: measure: %v", name, cfg, err)
	}
	enc, dec = newDecoder(t, cp, cfg, protect)
	want, err := refMeasure(cp, enc, dec)
	if err != nil {
		t.Fatalf("%s %+v: reference: %v", name, cfg, err)
	}
	if got.Encoded != want.Encoded || !reflect.DeepEqual(got.PerLineEncoded, want.PerLineEncoded) {
		t.Fatalf("%s %+v (protected=%v): Measure %d != per-fetch reference %d\n got lines %v\nwant lines %v",
			name, cfg, protect, got.Encoded, want.Encoded, got.PerLineEncoded, want.PerLineEncoded)
	}
	return got
}

// TestMeasureMatchesPerFetch holds Measure to the per-fetch reference on
// the loop-nest capture and the nine kernels at test scale, under every
// reference configuration: with a private memo, with one memo store
// shared across the configurations of equal per-block signature, and
// with protected decoders (memo off, stepped covered blocks).
func TestMeasureMatchesPerFetch(t *testing.T) {
	caps := map[string]*Capture{"loop": captureSource(t, streamLoopSrc)}
	for name, cp := range kernelCaptures(t) {
		caps[name] = cp
	}
	for name, cp := range caps {
		stores := map[string]*MemoStore{}
		for _, cfg := range refConfigs {
			res := checkAgainstRef(t, name, cp, cfg, false, Options{})
			if name == "loop" && (res.MemoBlocks == 0 || res.MemoHits == 0) {
				t.Errorf("loop %+v: memo idle (blocks %d, hits %d); the memo paths are not exercised",
					cfg, res.MemoBlocks, res.MemoHits)
			}
			d := cfg.WithDefaults()
			sig := fmt.Sprint(d.BlockSize, d.Funcs, d.Strategy, d.BusWidth)
			if stores[sig] == nil {
				stores[sig] = NewMemoStore()
			}
			checkAgainstRef(t, name, cp, cfg, false, Options{Shared: stores[sig]})
			checkAgainstRef(t, name, cp, cfg, true, Options{})
		}
	}
}
