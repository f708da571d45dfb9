package imtrans

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/icache"
	"imtrans/internal/power"
	"imtrans/internal/replay"
	"imtrans/internal/trace"
)

func TestMeasureWithCache(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := MeasureWithCache(p, nil, CacheConfig{}, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The tight loop fits the cache: nearly perfect hit rate.
	if cm.HitRatePercent < 95 {
		t.Errorf("hit rate %.1f%%", cm.HitRatePercent)
	}
	if cm.CoreEncoded >= cm.CoreBaseline {
		t.Errorf("core bus: %d >= %d", cm.CoreEncoded, cm.CoreBaseline)
	}
	if cm.RefillEncoded > cm.RefillBaseline {
		t.Errorf("refill bus regressed: %d > %d", cm.RefillEncoded, cm.RefillBaseline)
	}
	if cm.RefillWords == 0 {
		t.Error("no refill traffic recorded")
	}

	// Storage-independence claim: the core-side reduction with a cache
	// equals the uncached measurement (same encoded words on the bus).
	ms, err := MeasureProgram(p, nil, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cm.CoreBaseline != ms[0].Baseline || cm.CoreEncoded != ms[0].Encoded {
		t.Errorf("cached core bus (%d->%d) differs from uncached (%d->%d)",
			cm.CoreBaseline, cm.CoreEncoded, ms[0].Baseline, ms[0].Encoded)
	}
}

func TestMeasureWithCacheCustomGeometry(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := MeasureWithCache(p, nil, CacheConfig{LineWords: 2, Sets: 2, Ways: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A 16-byte direct-mapped cache cannot hold the 5-instruction loop
	// body: plenty of misses, so real refill traffic on both images.
	if cm.HitRatePercent > 90 {
		t.Errorf("tiny cache hit rate %.1f%% suspiciously high", cm.HitRatePercent)
	}
	if cm.RefillBaseline == 0 {
		t.Error("no baseline refill transitions")
	}
}

func TestMeasureWithCacheBadConfigs(t *testing.T) {
	p, _ := Assemble(testLoop)
	if _, err := MeasureWithCache(p, nil, CacheConfig{LineWords: 3, Sets: 2, Ways: 1}, Config{}); err == nil {
		t.Error("bad cache geometry accepted")
	}
	if _, err := MeasureWithCache(p, nil, CacheConfig{}, Config{BlockSize: 1}); err == nil {
		t.Error("bad encoding config accepted")
	}
}

// simulateWithCache is the re-simulating reference for MeasureWithCache:
// a profiling run drives the baseline core and refill buses through the
// cache on every fetch, and a second run drives the encoded image's,
// with the strict decoder restoring every word.
func simulateWithCache(p *Program, setup func(Memory) error, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	ic := cacheCfg.internal()

	// wordAt reads an instruction word from an image, with nop padding
	// for line fragments beyond the text segment.
	wordAt := func(img []uint32, addr uint32) uint32 {
		if addr < p.TextBase {
			return 0
		}
		i := int(addr-p.TextBase) / 4
		if i >= len(img) {
			return 0
		}
		return img[i]
	}

	// Run 1: profile; baseline core and refill buses.
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	coreBase := trace.NewBus(32)
	refillBase := trace.NewBus(32)
	cache1, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	var refillWords uint64
	cache1.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			refillBase.Transfer(wordAt(p.Text, lineAddr+uint32(4*w)))
			refillWords++
		}
	}
	m1.OnFetch = func(pc, word uint32) {
		coreBase.Transfer(word)
		cache1.Access(pc)
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: cached profiling run: %w", err)
	}

	// Encode from the profile.
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}
	enc, err := core.Encode(g, m1.Profile(), encCfg.coreConfig())
	if err != nil {
		return nil, err
	}
	if err := enc.Verify(); err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true

	// Run 2: encoded core and refill buses, decoder verified.
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	coreEnc := trace.NewBus(32)
	refillEnc := trace.NewBus(32)
	cache2, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	cache2.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			refillEnc.Transfer(wordAt(enc.EncodedWords, lineAddr+uint32(4*w)))
		}
	}
	var hookErr error
	m2.OnFetch = func(pc, word uint32) {
		busWord := enc.EncodedWords[int(pc-p.TextBase)/4]
		coreEnc.Transfer(busWord)
		cache2.Access(pc)
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil && hookErr == nil {
			hookErr = err
		}
		if restored != word && hookErr == nil {
			hookErr = fmt.Errorf("imtrans: decoder restored %#08x at pc %#x, want %#08x", restored, pc, word)
		}
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: cached measurement run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	if cache1.Misses != cache2.Misses {
		return nil, fmt.Errorf("imtrans: cache behaviour diverged between runs (%d vs %d misses)",
			cache1.Misses, cache2.Misses)
	}

	return &CacheMeasurement{
		Cache:          cacheCfg,
		Encoding:       encCfg,
		Fetches:        m2.InstCount,
		HitRatePercent: cache1.HitRate(),
		RefillWords:    refillWords,
		CoreBaseline:   coreBase.Total(),
		CoreEncoded:    coreEnc.Total(),
		CorePercent:    power.Reduction(coreBase.Total(), coreEnc.Total()),
		RefillBaseline: refillBase.Total(),
		RefillEncoded:  refillEnc.Total(),
		RefillPercent:  power.Reduction(refillBase.Total(), refillEnc.Total()),
	}, nil
}

// TestCacheMatchesSimulate holds the trace-driven I-cache study equal,
// field for field, to the two-run re-simulation on every kernel and the
// plain loop, across three geometries: the default 4-word 2-way cache, a
// tiny direct-mapped one that thrashes, and wide 8-word lines at 4 ways.
func TestCacheMatchesSimulate(t *testing.T) {
	geometries := []CacheConfig{
		{},
		{LineWords: 2, Sets: 2, Ways: 1},
		{LineWords: 8, Sets: 8, Ways: 4},
	}
	enc := Config{BlockSize: 5}
	for _, tc := range differentialPrograms(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range geometries {
				want, err := simulateWithCache(tc.p, tc.setup, g, enc)
				if err != nil {
					t.Fatal(err)
				}
				var got *CacheMeasurement
				if tc.bench != nil {
					got, err = tc.bench.MeasureWithCache(g, enc)
				} else {
					got, err = MeasureWithCache(tc.p, tc.setup, g, enc)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("geometry %+v: trace-driven study diverged\n got %+v\nwant %+v", g, got, want)
				}
			}
		})
	}
}

// lineTestCapture builds a randomised capture over an n-word text whose
// trace mixes sequential runs, tight loops (zero-displacement repeat
// groups), strided sweeps (repeat groups that drift by a fixed stride
// each iteration, often back over lines already resident) and cold
// jumps.
func lineTestCapture(r *rand.Rand, n, fetches int) *replay.Capture {
	b := replay.NewBuilder()
	var got int
	idx := r.Intn(n)
	add := func(i int) { b.Add(i); idx = i; got++ }
	add(idx)
	for got < fetches {
		switch r.Intn(4) {
		case 0: // sequential run
			for j := 1 + r.Intn(20); j > 0 && idx+1 < n; j-- {
				add(idx + 1)
			}
		case 1: // loop: body + back jump
			body, start := 2+r.Intn(12), idx
			if start+body >= n {
				continue
			}
			for it := 2 + r.Intn(20); it > 0; it-- {
				for j := 1; j <= body; j++ {
					add(start + j)
				}
				add(start)
			}
		case 2: // strided sweep, run twice over the same region
			span, stride := 1+r.Intn(4), 2+r.Intn(6)
			iters := 2 + r.Intn(8)
			start := r.Intn(n)
			if start+iters*(span+stride) >= n {
				continue
			}
			for pass := 0; pass < 2; pass++ {
				at := start
				add(at)
				for it := 0; it < iters; it++ {
					for j := 1; j <= span; j++ {
						add(at + j)
					}
					at += span + stride
					add(at)
				}
			}
		default: // cold jump
			add(r.Intn(n))
		}
	}
	return &replay.Capture{Base: 0x400000 + 4*uint32(r.Intn(8)), Trace: b.Trace()}
}

// TestDriveCacheLinesMatchesPerFetch holds the line-granular cache drive,
// with its repeat fast-forward, to an Access per fetch of the fully
// expanded trace: the same misses, the same refilled lines in the same
// order, and hits = fetches - misses.
func TestDriveCacheLinesMatchesPerFetch(t *testing.T) {
	geometries := []icache.Config{
		icache.DefaultConfig,
		{LineWords: 2, Sets: 2, Ways: 1},
		{LineWords: 8, Sets: 8, Ways: 4},
		{LineWords: 1, Sets: 4, Ways: 2},
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		cap := lineTestCapture(r, 64+r.Intn(512), 200+r.Intn(3000))
		for _, g := range geometries {
			want, _ := icache.New(g)
			var wantRefills []uint32
			want.OnRefill = func(a uint32) { wantRefills = append(wantRefills, a) }
			cap.Trace.Indices(func(idx int32) { want.Access(cap.Base + uint32(idx)*4) })

			got, _ := icache.New(g)
			var gotRefills []uint32
			got.OnRefill = func(a uint32) { gotRefills = append(gotRefills, a) }
			driveCacheLines(got, cap)

			if got.Misses != want.Misses || cap.Trace.N-got.Misses != want.Hits ||
				!reflect.DeepEqual(gotRefills, wantRefills) {
				t.Fatalf("trace %d, geometry %+v: %d misses (%d refills), want %d misses (%d refills), %d hits",
					i, g, got.Misses, len(gotRefills), want.Misses, len(wantRefills), want.Hits)
			}
		}
	}
}
