package imtrans

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/icache"
	"imtrans/internal/power"
	"imtrans/internal/replay"
	"imtrans/internal/scheme"
	"imtrans/internal/trace"
)

// CacheConfig describes the instruction cache of MeasureWithCache. The
// zero value selects a 1 KB, 4-word-line, 2-way cache.
type CacheConfig struct {
	LineWords int // words per line (power of two)
	Sets      int // sets (power of two)
	Ways      int // associativity
}

func (c CacheConfig) internal() icache.Config {
	if c.LineWords == 0 && c.Sets == 0 && c.Ways == 0 {
		return icache.DefaultConfig
	}
	return icache.Config{LineWords: c.LineWords, Sets: c.Sets, Ways: c.Ways}
}

// CacheMeasurement reports the two instruction buses of a cached system:
// the core-side bus between the I-cache and the fetch unit (which the
// paper's technique targets — the cache stores the encoded image and the
// decoder sits in the processor), and the memory-side refill bus, which
// carries encoded lines too and therefore also benefits.
type CacheMeasurement struct {
	Cache    CacheConfig
	Encoding Config

	Fetches        uint64
	HitRatePercent float64
	RefillWords    uint64 // words transferred on the refill bus

	CoreBaseline uint64
	CoreEncoded  uint64
	CorePercent  float64

	RefillBaseline uint64
	RefillEncoded  uint64
	RefillPercent  float64
}

// MeasureWithCache runs the pipeline with an instruction cache between
// memory and core. It verifies the paper's storage-independence claim —
// the core-side reduction equals the uncached measurement, because the
// cache stores encoded words verbatim — and quantifies the bonus reduction
// on the memory-side refill bus.
//
// Everything comes from the program's cached fetch-trace capture
// (profiling it on first use): the core-side buses are the capture's
// baseline and the paper replay of encCfg — which is what storage
// independence says they are — and the cache itself is driven from the
// trace, refilling lines of the original and the encoded image alike.
func MeasureWithCache(p *Program, setup func(Memory) error, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	return measureWithCache(p, setup, "", cacheCfg, encCfg)
}

func measureWithCache(p *Program, setup func(Memory) error, salt string, cacheCfg CacheConfig, encCfg Config) (*CacheMeasurement, error) {
	ic := cacheCfg.internal()
	cache, err := icache.New(ic)
	if err != nil {
		return nil, err
	}
	cap, err := captureProgram(p, setup, salt)
	if err != nil {
		return nil, err
	}
	out, err := scheme.MeasurePaper(context.Background(), schemeWorkload(cap, replayEnv{}), encCfg.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("imtrans: %v: %w", encCfg, err)
	}

	// wordAt reads an instruction word from an image, with nop padding
	// for line fragments beyond the text segment.
	wordAt := func(img []uint32, addr uint32) uint32 {
		if addr < cap.Base {
			return 0
		}
		i := int(addr-cap.Base) / 4
		if i >= len(img) {
			return 0
		}
		return img[i]
	}
	refillBase := trace.NewBus(32)
	refillEnc := trace.NewBus(32)
	cache.OnRefill = func(lineAddr uint32) {
		for w := 0; w < ic.LineWords; w++ {
			addr := lineAddr + uint32(4*w)
			refillBase.Transfer(wordAt(cap.Words, addr))
			refillEnc.Transfer(wordAt(out.Enc.EncodedWords, addr))
		}
	}
	driveCacheLines(cache, cap)
	// Every fetch that did not change line, or changed to a resident
	// one, hit.
	cache.Hits = cap.Trace.N - cache.Misses

	coreBase, coreEnc := cap.BaselineTotal, out.Rep.Encoded
	return &CacheMeasurement{
		Cache:          cacheCfg,
		Encoding:       encCfg,
		Fetches:        cap.Instructions,
		HitRatePercent: cache.HitRate(),
		RefillWords:    cache.Misses * uint64(ic.LineWords),
		CoreBaseline:   coreBase,
		CoreEncoded:    coreEnc,
		CorePercent:    power.Reduction(coreBase, coreEnc),
		RefillBaseline: refillBase.Total(),
		RefillEncoded:  refillEnc.Total(),
		RefillPercent:  power.Reduction(refillBase.Total(), refillEnc.Total()),
	}, nil
}

// driveCacheLines replays a capture's fetch stream into an instruction
// cache at line granularity: one Access per change of cache line. A fetch
// from the line just accessed always hits and leaves the LRU order as it
// is (that line is already the most recent), so skipping it changes no
// miss, refill or replacement decision. A repeat group whose body returns
// to its entry index and completes an iteration without a miss is
// finished outright: the next iteration walks the same lines from the
// same resident set, so it hits throughout as well, and so does every
// one after it.
func driveCacheLines(c *icache.Cache, cap *replay.Capture) {
	tr := cap.Trace
	d := lineDriver{c: c, base: cap.Base, shift: uint(bits.TrailingZeros(uint(c.Config().LineWords * 4))), idx: tr.First}
	d.line = d.lineOf(d.idx)
	c.Access(d.pc(d.idx))
	d.ops(tr.Ops)
}

// lineDriver is driveCacheLines' walker: the current text index and the
// cache line it lies in.
type lineDriver struct {
	c     *icache.Cache
	base  uint32
	shift uint // log2 of the line size in bytes
	idx   int32
	line  uint32
}

func (d *lineDriver) pc(idx int32) uint32     { return d.base + uint32(idx)*4 }
func (d *lineDriver) lineOf(idx int32) uint32 { return d.pc(idx) >> d.shift }

// visit moves to idx, accessing the cache if its line differs.
func (d *lineDriver) visit(idx int32) {
	d.idx = idx
	if l := d.lineOf(idx); l != d.line {
		d.line = l
		d.c.Access(d.pc(idx))
	}
}

func (d *lineDriver) ops(ops []replay.Op) {
	for i := range ops {
		op := &ops[i]
		switch {
		case op.Repeat > 0:
			d.repeat(op)
		case op.Delta == 1:
			// Touch only the first fetch of each line the span enters.
			hi := d.idx + int32(op.Count)
			for next := d.idx + 1; next <= hi; {
				d.visit(next)
				next = int32((uint64(d.line+1)<<d.shift - uint64(d.base)) / 4)
			}
			d.idx = hi
		default:
			for n := op.Count; n > 0; n-- {
				d.visit(d.idx + op.Delta)
			}
		}
	}
}

func (d *lineDriver) repeat(op *replay.Op) {
	for r := int64(0); r < op.Repeat; r++ {
		entry, misses := d.idx, d.c.Misses
		d.ops(op.Body)
		if d.idx == entry && d.c.Misses == misses {
			return
		}
	}
}
