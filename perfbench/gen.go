package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"

	"imtrans"
)

// Wire types: the request bodies imtransd accepts, declared here so the
// benchmark depends on the documented JSON contract, not on the daemon's
// internal packages.

type benchRef struct {
	Name  string `json:"name"`
	N     int    `json:"n,omitempty"`
	Iters int    `json:"iters,omitempty"`
}

type configReq struct {
	BlockSize    int  `json:"block_size,omitempty"`
	TTEntries    int  `json:"tt_entries,omitempty"`
	BBITEntries  int  `json:"bbit_entries,omitempty"`
	AllFunctions bool `json:"all_functions,omitempty"`
	Exact        bool `json:"exact,omitempty"`
	Knapsack     bool `json:"knapsack,omitempty"`
	BusWidth     int  `json:"bus_width,omitempty"`
}

type schemeReq struct {
	Name       string    `json:"name"`
	Config     configReq `json:"config,omitempty"`
	Entries    int       `json:"entries,omitempty"`
	ExtraLines int       `json:"extra_lines,omitempty"`
}

type measureReq struct {
	Benchmarks []benchRef  `json:"benchmarks"`
	Configs    []configReq `json:"configs,omitempty"`
}

type compareReq struct {
	Benchmarks []benchRef  `json:"benchmarks"`
	Schemes    []schemeReq `json:"schemes"`
}

// jobSpec is the body of POST /v1/jobs: a sweep (Kind "") or a compare.
type jobSpec struct {
	Kind       string      `json:"kind,omitempty"`
	Benchmarks []benchRef  `json:"benchmarks"`
	Configs    []configReq `json:"configs,omitempty"`
	Schemes    []schemeReq `json:"schemes,omitempty"`
}

func (c configReq) config() imtrans.Config {
	return imtrans.Config{
		BlockSize:    c.BlockSize,
		TTEntries:    c.TTEntries,
		BBITEntries:  c.BBITEntries,
		AllFunctions: c.AllFunctions,
		Exact:        c.Exact,
		Knapsack:     c.Knapsack,
		BusWidth:     c.BusWidth,
	}
}

func (s schemeReq) spec() imtrans.SchemeSpec {
	return imtrans.SchemeSpec{Name: s.Name, Config: s.Config.config(), Entries: s.Entries, ExtraLines: s.ExtraLines}
}

func (r benchRef) benchmark() (imtrans.Benchmark, error) {
	b, err := imtrans.BenchmarkByName(r.Name)
	if err != nil {
		return imtrans.Benchmark{}, err
	}
	return b.WithScale(r.N, r.Iters), nil
}

// Request classes. The grid workload sends measure and compare; the
// mixed workload labels its bodies by what they should hit.
const (
	classMeasure = "measure"
	classCompare = "compare"
	classRepeat  = "repeat"  // byte-identical to an earlier body: result cache
	classNewGrid = "newgrid" // new grid over captured (kernel, scale) pairs
	classFresh   = "fresh"   // includes a never-seen pair: simulation + CAS write
	classJob     = "job"     // durable /v1/jobs submission, polled to completion
)

// Body is one generated request.
type Body struct {
	Class string // one of the class constants
	Kind  string // "measure", "compare" or "job"
	Path  string
	Data  []byte
	Cells int

	measure *measureReq
	compare *compareReq
	job     *jobSpec
}

func newBody(class string, v any) *Body {
	b := &Body{Class: class}
	switch r := v.(type) {
	case *measureReq:
		b.Kind, b.Path, b.measure = "measure", "/v1/measure", r
		b.Cells = len(r.Benchmarks) * max(1, len(r.Configs))
	case *compareReq:
		b.Kind, b.Path, b.compare = "compare", "/v1/compare", r
		b.Cells = len(r.Benchmarks) * len(r.Schemes)
	case *jobSpec:
		b.Kind, b.Path, b.job = "job", "/v1/jobs", r
		b.Cells = len(r.Benchmarks) * max(len(r.Configs), len(r.Schemes))
	default:
		panic(fmt.Sprintf("newBody: unexpected %T", v))
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints, bools and strings always marshal
	}
	b.Data = data
	return b
}

// pick returns one element of xs chosen by rng.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// drawConfig draws one paper-scheme configuration from the knob space
// the daemon accepts: block size, TT/BBIT capacity, exact chaining,
// all 16 functions, knapsack allocation and bus width.
func drawConfig(rng *rand.Rand) configReq {
	return configReq{
		BlockSize:    pick(rng, []int{0, 3, 4, 5, 6, 7}),
		TTEntries:    pick(rng, []int{0, 4, 8, 32, 64}),
		BBITEntries:  pick(rng, []int{0, 8, 32, 64}),
		AllFunctions: rng.Intn(5) == 0,
		Exact:        rng.Intn(5) == 0,
		Knapsack:     rng.Intn(5) == 0,
		BusWidth:     pick(rng, []int{0, 0, 0, 16, 24}),
	}
}

// schemeNames is the registered scheme set in registry (sorted) order.
var schemeNames = []string{"businvert", "codebook", "dictionary", "gray", "lwc", "paper", "t0"}

// drawScheme draws the knobs of one scheme column; each scheme gets only
// the knobs it reads, since the daemon refuses knob bleed.
func drawScheme(rng *rand.Rand, name string) schemeReq {
	s := schemeReq{Name: name}
	switch name {
	case "paper":
		s.Config = drawConfig(rng)
	case "businvert", "gray", "t0":
		s.Config.BusWidth = pick(rng, []int{0, 16, 24, 32})
	case "codebook":
		s.Entries = pick(rng, []int{0, 64, 256, 1024})
	case "dictionary":
		s.Entries = pick(rng, []int{0, 64, 128, 256, 512})
	case "lwc":
		s.ExtraLines = pick(rng, []int{0, 2, 4, 6, 8})
		s.Entries = pick(rng, []int{0, 256, 1024})
	}
	return s
}

// drawConfigs draws n pairwise-distinct configurations.
func drawConfigs(rng *rand.Rand, n int) []configReq {
	out := make([]configReq, 0, n)
	seen := map[configReq]bool{}
	for len(out) < n {
		c := drawConfig(rng)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// distinct remembers body digests so a generator never emits a body
// twice unless it means to (the repeat class).
type distinct map[[32]byte]bool

func (d distinct) fresh(b *Body) bool {
	k := sha256.Sum256(append([]byte(b.Path), b.Data...))
	if d[k] {
		return false
	}
	d[k] = true
	return true
}

// paperKernels are the nine built-in kernels at paper scale: the six
// paper benchmarks plus the three extras.
func paperKernels() []benchRef {
	var out []benchRef
	for _, b := range imtrans.Benchmarks() {
		out = append(out, benchRef{Name: b.Name})
	}
	for _, b := range imtrans.ExtraBenchmarks() {
		out = append(out, benchRef{Name: b.Name})
	}
	return out
}

// gridGen generates serve-grid traffic: paper-scale /v1/measure config
// grids (nine kernels x 6-8 configs) and /v1/compare scheme grids (nine
// kernels x the seven schemes with drawn knobs), every body distinct.
// No recorded traffic exists to take the split from, so the two
// endpoints the daemon's grid API offers get equal shares: they are
// dealt in shuffled pairs, one of each, so every window holds the same
// mix. The latency metrics are per kind (see kindPercentiles), so the
// split does not decide where a percentile falls.
type gridGen struct {
	rng     *rand.Rand
	kernels []benchRef
	seen    distinct
	deck    []string // kinds still to deal in the current pair
}

func newGridGen(seed int64) *gridGen {
	g := &gridGen{rng: rand.New(rand.NewSource(seed)), kernels: paperKernels(), seen: distinct{}}
	for _, b := range warmGridBodies() {
		g.seen.fresh(b)
	}
	return g
}

func (g *gridGen) Next() *Body {
	if len(g.deck) == 0 {
		g.deck = shuffled(g.rng, []string{classMeasure, classCompare})
	}
	kind := g.deck[0]
	g.deck = g.deck[1:]
	for {
		var b *Body
		if kind == classMeasure {
			b = newBody(classMeasure, &measureReq{Benchmarks: g.kernels, Configs: drawConfigs(g.rng, 6+g.rng.Intn(3))})
		} else {
			cr := &compareReq{Benchmarks: g.kernels}
			for _, name := range schemeNames {
				cr.Schemes = append(cr.Schemes, drawScheme(g.rng, name))
			}
			b = newBody(classCompare, cr)
		}
		if g.seen.fresh(b) {
			return b
		}
	}
}

// shuffled returns a shuffled copy of xs.
func shuffled(rng *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmGridBodies are the set-up requests of serve-grid: one default-config
// measure and one default compare over all nine kernels, which capture
// every kernel and build every scheme stream. The generator never emits
// them (its grids have 6-8 configs and drawn knobs).
func warmGridBodies() []*Body {
	k := paperKernels()
	cr := &compareReq{Benchmarks: k}
	for _, name := range schemeNames {
		cr.Schemes = append(cr.Schemes, schemeReq{Name: name})
	}
	return []*Body{
		newBody(classMeasure, &measureReq{Benchmarks: k, Configs: []configReq{{}}}),
		newBody(classCompare, cr),
	}
}

// pairStrata lists the reduced (kernel, scale) pairs serve-mixed draws
// from — 3108 pairs over the nine kernels, every one small enough that
// a fresh simulation takes milliseconds — grouped by kernel and size
// band. Kernels whose size ignores iters (mmul, lu, fft) vary n only.
func pairStrata() [][]benchRef {
	var strata [][]benchRef
	for band := 0; band < 2; band++ {
		var mmul, lu []benchRef
		for i := band * 8; i < band*8+8; i++ {
			mmul = append(mmul, benchRef{Name: "mmul", N: 8 + i, Iters: 1})
			lu = append(lu, benchRef{Name: "lu", N: 10 + i, Iters: 1})
		}
		strata = append(strata, mmul, lu)
	}
	var fft []benchRef
	for _, n := range []int{16, 32, 64, 128} {
		fft = append(fft, benchRef{Name: "fft", N: n, Iters: 1})
	}
	strata = append(strata, fft)
	for nBand := 0; nBand < 4; nBand++ {
		for itBand := 0; itBand < 4; itBand++ {
			group := map[string][]benchRef{}
			for i := nBand * 8; i < nBand*8+8; i++ {
				for it := itBand*4 + 1; it <= itBand*4+4; it++ {
					for _, r := range []benchRef{
						{Name: "sor", N: 10 + i, Iters: it},
						{Name: "ej", N: 10 + i, Iters: it},
						{Name: "tri", N: 12 + i, Iters: it},
						{Name: "crc32", N: 256 + 32*i, Iters: it},
						{Name: "iir", N: 64 + 16*i, Iters: it},
						{Name: "conv2d", N: 12 + i, Iters: it},
					} {
						group[r.Name] = append(group[r.Name], r)
					}
				}
			}
			for _, k := range []string{"sor", "ej", "tri", "crc32", "iir", "conv2d"} {
				strata = append(strata, group[k])
			}
		}
	}
	return strata
}

// stratifiedOrder shuffles each stratum and then deals one pair from
// each stratum in turn, so every prefix of the order holds nearly the
// same mix of kernels and sizes whatever the seed.
func stratifiedOrder(rng *rand.Rand, strata [][]benchRef) []benchRef {
	var out []benchRef
	for _, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	for round := 0; ; round++ {
		dealt := false
		for _, st := range strata {
			if round < len(st) {
				out = append(out, st[round])
				dealt = true
			}
		}
		if !dealt {
			return out
		}
	}
}

// mixedBase is how many pairs serve-mixed captures during set-up; the
// fresh class then adds never-seen pairs on top, so a run's distinct
// pairs pass the daemon's 128-entry capture cache and evicted captures
// come back from the CAS tier.
const mixedBase = 104

// mixedClasses are serve-mixed's request classes. No recorded traffic
// exists to weight them by, so each gets an equal share: they are dealt
// in shuffled rounds of one body per class (jobs left out where the
// caller turns them off), so every window holds the same mix.
var mixedClasses = []string{classRepeat, classNewGrid, classFresh, classJob}

// mixedGen generates serve-mixed traffic over the reduced pair universe.
type mixedGen struct {
	rng      *rand.Rand
	captured []benchRef // pairs captured so far, in capture order
	pool     []benchRef // never-seen pairs, consumed by the fresh class
	history  []*Body    // sent measure/compare bodies, for the repeat class
	seen     distinct
	jobs     bool     // whether the job class may be dealt
	deck     []string // classes still to deal in the current round
	deckJobs bool     // the jobs setting the deck was dealt with
}

func newMixedGen(seed int64) *mixedGen {
	rng := rand.New(rand.NewSource(seed))
	pairs := stratifiedOrder(rng, pairStrata())
	return &mixedGen{
		rng:      rng,
		captured: append([]benchRef(nil), pairs[:mixedBase]...),
		pool:     pairs[mixedBase:],
		seen:     distinct{},
		jobs:     true,
	}
}

// Warm returns the set-up bodies: default-config measures capturing the
// base pairs, eight pairs per request. They are earlier bodies the
// repeat class may send again.
func (g *mixedGen) Warm() []*Body {
	var out []*Body
	for i := 0; i < len(g.captured); i += 8 {
		b := newBody(classNewGrid, &measureReq{Benchmarks: g.captured[i:min(i+8, len(g.captured))], Configs: []configReq{{}}})
		g.seen.fresh(b)
		g.history = append(g.history, b)
		out = append(out, b)
	}
	return out
}

func (g *mixedGen) pickCaptured(n int) []benchRef {
	out := make([]benchRef, 0, n)
	used := map[benchRef]bool{}
	for len(out) < n {
		p := pick(g.rng, g.captured)
		if !used[p] {
			used[p] = true
			out = append(out, p)
		}
	}
	return out
}

// dealClass returns the next class of the current round, dealing a new
// shuffled round when it is used up or the jobs setting changed.
func (g *mixedGen) dealClass() string {
	if len(g.deck) == 0 || g.deckJobs != g.jobs {
		g.deck, g.deckJobs = nil, g.jobs
		for _, c := range shuffled(g.rng, mixedClasses) {
			if c != classJob || g.jobs {
				g.deck = append(g.deck, c)
			}
		}
	}
	c := g.deck[0]
	g.deck = g.deck[1:]
	return c
}

func (g *mixedGen) drawSchemes(n int) []schemeReq {
	names := append([]string(nil), schemeNames...)
	g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := make([]schemeReq, n)
	for i := range out {
		out[i] = drawScheme(g.rng, names[i])
	}
	return out
}

// Next returns the next body. The sequence depends only on the seed and
// on how many bodies were drawn before, never on timing.
func (g *mixedGen) Next() *Body {
	class := g.dealClass()
	if class == classRepeat {
		prev := pick(g.rng, g.history)
		b := *prev
		b.Class = classRepeat
		return &b
	}
	if class == classFresh && len(g.pool) == 0 {
		panic("mixedGen: the never-seen pair pool is used up")
	}
	for {
		var b *Body
		switch class {
		case classNewGrid:
			pairs := g.pickCaptured(2 + g.rng.Intn(3))
			if g.rng.Intn(2) == 0 {
				b = newBody(class, &measureReq{Benchmarks: pairs, Configs: drawConfigs(g.rng, 2+g.rng.Intn(4))})
			} else {
				b = newBody(class, &compareReq{Benchmarks: pairs, Schemes: g.drawSchemes(3 + g.rng.Intn(3))})
			}
		case classFresh:
			pairs := append([]benchRef{g.pool[0]}, g.pickCaptured(1+g.rng.Intn(3))...)
			b = newBody(class, &measureReq{Benchmarks: pairs, Configs: drawConfigs(g.rng, 2+g.rng.Intn(4))})
		case classJob:
			pairs := g.pickCaptured(2 + g.rng.Intn(2))
			if g.rng.Intn(2) == 0 {
				b = newBody(class, &jobSpec{Benchmarks: pairs, Configs: drawConfigs(g.rng, 2+g.rng.Intn(2))})
			} else {
				b = newBody(class, &jobSpec{Kind: "compare", Benchmarks: pairs, Schemes: g.drawSchemes(2 + g.rng.Intn(2))})
			}
		}
		if !g.seen.fresh(b) {
			continue
		}
		if class == classFresh {
			g.captured = append(g.captured, g.pool[0])
			g.pool = g.pool[1:]
		}
		if b.Kind != "job" {
			g.history = append(g.history, b)
		}
		return b
	}
}

// probePair returns two distinct measure bodies over the same captured
// pairs, never sent before: the first warms captures, the second is
// timed by the server-overhead probe.
func (g *mixedGen) probePair() (*Body, *Body) {
	pairs := g.pickCaptured(3)
	mk := func() *Body {
		for {
			b := newBody(classNewGrid, &measureReq{Benchmarks: pairs, Configs: drawConfigs(g.rng, 3)})
			if g.seen.fresh(b) {
				return b
			}
		}
	}
	return mk(), mk()
}
