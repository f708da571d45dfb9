// Package replay implements the fetch-trace capture/replay engine: the
// dynamic instruction fetch stream of a deterministic run is a pure
// function of the program, so it is simulated once, captured as a compact
// compressed text-index trace, and replayed — bit-identically — against
// any number of encoding configurations without touching the CPU or the
// memory model again.
//
// The trace records the sequence of text indices fetched, compressed in
// two stages. First, consecutive index deltas are run-length encoded:
// straight-line execution is a single (+1, n) run and every taken branch
// contributes one extra token, so the token stream is proportional to the
// number of taken branches, not to the instruction count. Second, tandem
// repeats in the token stream are collapsed into nested repeat groups: a
// hot loop iterating a million times is two tokens and a repeat count, and
// nested loops with fixed trip counts collapse recursively. Kernels spend
// nearly all of their time in such loops, so real traces compress from
// hundreds of millions of fetches to a few hundred ops.
package replay

// Op is one node of a compressed fetch-index trace. A leaf op is a run:
// Count consecutive fetches, each stepping Delta text indices from its
// predecessor. A group op (Repeat > 0) is Body replayed Repeat times;
// Delta and Count are unused there.
type Op struct {
	Delta  int32
	Count  int64
	Repeat int64
	Body   []Op
}

// leafEqual reports whether two ops are equal without descending into
// bodies — the cheap precheck of a tandem-repeat comparison.
func leafEqual(a, b *Op) bool {
	return a.Delta == b.Delta && a.Count == b.Count && a.Repeat == b.Repeat &&
		(a.Repeat == 0 || len(a.Body) == len(b.Body))
}

func opEqual(a, b *Op) bool {
	if !leafEqual(a, b) {
		return false
	}
	if a.Repeat == 0 {
		return true
	}
	return opsEqual(a.Body, b.Body)
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !opEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// Trace is a captured fetch-index stream: the index of the first fetch
// plus the compressed delta ops describing fetches 2..N.
type Trace struct {
	First int32  // text index of the first fetch
	N     uint64 // total fetches, including the first
	Ops   []Op
}

// Fetches returns the number of fetches the trace describes.
func (t *Trace) Fetches() uint64 { return t.N }

// NumOps returns the total op count, descending into repeat groups once —
// the in-memory size of the compressed trace.
func (t *Trace) NumOps() int { return countOps(t.Ops) }

func countOps(ops []Op) int {
	n := 0
	for i := range ops {
		n++
		if ops[i].Repeat > 0 {
			n += countOps(ops[i].Body)
		}
	}
	return n
}

// Runs calls fn for every delta run of the stream in order, with repeat
// groups expanded: fn(delta, count) stands for count fetches each stepping
// delta from the previous index. The first fetch (at index First) is not
// part of any run. fn returning false stops the walk.
func (t *Trace) Runs(fn func(delta int32, count int64) bool) {
	runOps(t.Ops, fn)
}

func runOps(ops []Op, fn func(delta int32, count int64) bool) bool {
	for i := range ops {
		op := &ops[i]
		if op.Repeat > 0 {
			for r := int64(0); r < op.Repeat; r++ {
				if !runOps(op.Body, fn) {
					return false
				}
			}
			continue
		}
		if !fn(op.Delta, op.Count) {
			return false
		}
	}
	return true
}

// Indices calls fn for every fetched text index in stream order, fully
// expanded. It is the per-fetch walk of the studies that need every fetch
// in order (imtrans.MeasurePhased's table switching, imtrans.TraceProgram's
// annotated view) and the reference the tests hold the structured walkers
// to. The replay engine, the fleet kernels and the capture-time
// derivations work on runs and repeat groups instead.
func (t *Trace) Indices(fn func(idx int32)) {
	if t.N == 0 {
		return
	}
	idx := t.First
	fn(idx)
	t.Runs(func(delta int32, count int64) bool {
		for i := int64(0); i < count; i++ {
			idx += delta
			fn(idx)
		}
		return true
	})
}

// maxTandemWindow bounds the token window the builder scans for tandem
// repeats. Loop bodies produce a handful of tokens per iteration (one per
// taken branch), so a modest window catches real loop nests while keeping
// the per-token cost bounded.
const maxTandemWindow = 24

// The builder fingerprints every op on its stack structurally (a group's
// fingerprint covers its repeat count and, through a sequence hash, its
// whole body) and keeps a polynomial prefix hash over the stack, so the
// hash of any tail window is two multiplies away. Equal ops have equal
// fingerprints and equal windows equal hashes; collapseTail compares
// hashes first and runs the exact comparison only on a hash match, so a
// collision costs time, never a wrong fold.
const (
	hashBase    = 0x9e3779b97f4a7c15 // odd multiplier of the prefix hash
	hashBuckets = 256                // fingerprint buckets of the fold index
)

// hashPow[w] is hashBase^w, for window widths up to the fold window.
var hashPow = func() (p [maxTandemWindow + 1]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * hashBase
	}
	return p
}()

// fingerprint hashes op structurally; body is the sequence hash of a
// group's body (unused for a run). One multiply spreads the fields into
// the high bits, which pick the bucket.
func fingerprint(op *Op, body uint64) uint64 {
	h := (uint64(uint32(op.Delta)) ^ uint64(op.Count)<<32 ^ uint64(op.Count)>>32) * 0xbf58476d1ce4e5b9
	if op.Repeat > 0 {
		h = (h ^ body ^ uint64(op.Repeat)*0x94d049bb133111eb ^ uint64(len(op.Body))) * 0xc2b2ae3d27d4eb4f
	}
	return h ^ h>>29
}

// opMeta is the builder's index entry for one op of its stack.
type opMeta struct {
	fp   uint64 // structural fingerprint of the op
	pre  uint64 // sequence hash of the stack up to and including the op
	body uint64 // sequence hash of a group's body
	prev int32  // next op below in the same fingerprint bucket, plus one
}

// Builder incrementally compresses a fetch-index stream. Feed it every
// fetched text index in order, one at a time via Add or as sequential
// ranges via AddRange, then call Trace.
type Builder struct {
	first    int32
	n        uint64
	lastIdx  int32
	curDelta int32
	curCount int64
	ops      []Op

	// The index collapseTail searches instead of scanning every window:
	// meta runs parallel to ops, bucket[k] is the topmost op (plus one;
	// zero means none) whose fingerprint falls in bucket k, groups holds
	// the ascending stack positions of the repeat groups, and due[e]
	// counts the groups an op at position e would complete one more
	// iteration of (those at p with p+len(Body) == e).
	meta   []opMeta
	bucket [hashBuckets]int32
	groups []int32
	due    []int32
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder { return &Builder{} }

// Add records the next fetched text index.
func (b *Builder) Add(idx int) {
	i := int32(idx)
	b.n++
	if b.n == 1 {
		b.first, b.lastIdx = i, i
		return
	}
	delta := i - b.lastIdx
	b.lastIdx = i
	if b.curCount > 0 && delta == b.curDelta {
		b.curCount++
		return
	}
	b.flushRun()
	b.curDelta, b.curCount = delta, 1
}

// AddRange records n fetches of the sequential indices from, from+1, ...,
// from+n-1 — exactly n calls of Add, in constant time.
func (b *Builder) AddRange(from, n int) {
	if n <= 0 {
		return
	}
	b.Add(from)
	if n == 1 {
		return
	}
	rest := int64(n - 1)
	b.n += uint64(rest)
	b.lastIdx = int32(from + n - 1)
	if b.curCount > 0 && b.curDelta == 1 {
		b.curCount += rest
		return
	}
	b.flushRun()
	b.curDelta, b.curCount = 1, rest
}

func (b *Builder) flushRun() {
	if b.curCount == 0 {
		return
	}
	// Push the finished run and eagerly collapse tandem repeats at the
	// tail of the op stack. A run that completes another iteration of a
	// repeat group is folded into it without touching the stack.
	if !b.extendWithRun(b.curDelta, b.curCount) {
		b.pushOp(b.curDelta, b.curCount, 0, nil, 0)
		if !b.fold() {
			b.curCount = 0
			return
		}
	}
	for b.collapseTail() {
	}
	b.curCount = 0
}

// pushOp appends the op {delta, count, repeat, body}, where bodyHash is
// the sequence hash of a group's body. The fields are stored in place:
// passing an Op by value costs a stack round trip per push.
func (b *Builder) pushOp(delta int32, count, repeat int64, body []Op, bodyHash uint64) {
	pos := len(b.ops)
	b.ops = append(b.ops, Op{})
	op := &b.ops[pos]
	op.Delta, op.Count, op.Repeat, op.Body = delta, count, repeat, body
	b.meta = append(b.meta, opMeta{body: bodyHash})
	b.index(pos)
	if repeat > 0 {
		b.groups = append(b.groups, int32(pos))
		e := pos + len(body)
		for len(b.due) <= e {
			b.due = append(b.due, 0)
		}
		b.due[e]++
	}
}

// index fingerprints the op at pos, the top of the stack, extends the
// prefix hash over it and files it in its bucket.
func (b *Builder) index(pos int) {
	m := &b.meta[pos]
	m.fp = fingerprint(&b.ops[pos], m.body)
	m.pre = m.fp
	if pos > 0 {
		m.pre += b.meta[pos-1].pre * hashBase
	}
	k := uint8(m.fp >> 56)
	m.prev = b.bucket[k]
	b.bucket[k] = int32(pos) + 1
}

// truncate pops the stack down to n ops. Ops leave from the top, so each
// is the topmost of its bucket when it goes.
func (b *Builder) truncate(n int) {
	for i := len(b.ops) - 1; i >= n; i-- {
		b.bucket[uint8(b.meta[i].fp>>56)] = b.meta[i].prev
	}
	g := len(b.groups)
	for g > 0 && int(b.groups[g-1]) >= n {
		g--
		p := int(b.groups[g])
		b.due[p+len(b.ops[p].Body)]--
	}
	b.ops, b.meta, b.groups = b.ops[:n], b.meta[:n], b.groups[:g]
}

// window returns the sequence hash of ops[l:r].
func (b *Builder) window(l, r int) uint64 {
	h := b.meta[r-1].pre
	if l > 0 {
		h -= b.meta[l-1].pre * hashPow[r-l]
	}
	return h
}

// collapseTail tries, in order: extending a repeat group that immediately
// precedes an equal tail window, and folding two equal adjacent tail
// windows into a new repeat group, each at the smallest window width
// (1..maxTandemWindow) that applies. Returns true if it changed the stack.
// Only candidate windows are visited — the repeat groups within reach for
// an extension, the earlier ops in the last op's fingerprint bucket for a
// fold — and only a hash match is compared op by op.
func (b *Builder) collapseTail() bool {
	return b.extend() || b.fold()
}

// extend: ... Repeat{body} body  =>  ... Repeat{body; Repeat+1}.
func (b *Builder) extend() bool {
	n := len(b.ops)
	return b.extendTo(n-1, &b.ops[n-1], b.meta[n-1].fp)
}

// extendWithRun is extend as it would run right after pushing the run
// {delta, count}, without pushing it: a run the stack would absorb into a
// group at once never enters it.
func (b *Builder) extendWithRun(delta int32, count int64) bool {
	run := Op{Delta: delta, Count: count}
	return b.extendTo(len(b.ops), &run, fingerprint(&run, 0))
}

// extendTo extends the nearest group whose body equals ops[p+1:top]
// followed by last, the op (with fingerprint fp) at position top.
func (b *Builder) extendTo(top int, last *Op, fp uint64) bool {
	if top >= len(b.due) || b.due[top] == 0 {
		return false
	}
	for k := len(b.groups) - 1; k >= 0; k-- {
		p := int(b.groups[k])
		w := top - p
		if w > maxTandemWindow {
			break
		}
		g := &b.ops[p]
		if len(g.Body) != w { // also skips a group at top itself
			continue
		}
		h := fp
		if w > 1 {
			h += b.window(p+1, top) * hashBase
		}
		if b.meta[p].body != h || !opEqual(&g.Body[w-1], last) || !opsEqual(g.Body[:w-1], b.ops[p+1:top]) {
			continue
		}
		b.bumpGroup(p)
		return true
	}
	return false
}

// bumpGroup counts one more iteration of the group at p, whose body the
// ops above it repeat, and drops them. The group's repeat count is part
// of its fingerprint, so it is re-indexed.
func (b *Builder) bumpGroup(p int) {
	b.truncate(p + 1)
	b.bucket[uint8(b.meta[p].fp>>56)] = b.meta[p].prev
	b.ops[p].Repeat++
	b.index(p)
}

// fold: ... body body  =>  ... Repeat{body; 2}.
func (b *Builder) fold() bool {
	n := len(b.ops)
	fp := b.meta[n-1].fp
	for j := int(b.meta[n-1].prev) - 1; j >= 0; j = int(b.meta[j].prev) - 1 {
		w := n - 1 - j
		if w > maxTandemWindow || 2*w > n {
			break
		}
		if b.meta[j].fp != fp {
			continue
		}
		h := b.window(n-w, n)
		if b.window(n-2*w, n-w) != h || !opsEqual(b.ops[n-2*w:n-w], b.ops[n-w:]) {
			continue
		}
		body := make([]Op, w)
		copy(body, b.ops[n-w:])
		b.truncate(n - 2*w)
		b.pushOp(0, 0, 2, body, h)
		return true
	}
	return false
}

// Trace finalises and returns the compressed trace. The builder must not
// be used afterwards.
func (b *Builder) Trace() *Trace {
	b.flushRun()
	return &Trace{First: b.first, N: b.n, Ops: b.ops}
}
