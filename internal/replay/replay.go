package replay

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/core"
	"imtrans/internal/hw"
)

// Result is the configuration-dependent half of a measurement, replayed
// from a capture: the encoded-bus transition counts a second simulation
// would produce with this encoding's sink in its fetch hook.
type Result struct {
	Encoded        uint64
	PerLineEncoded []uint64

	// MemoBlocks counts covered blocks whose outcome this replay recorded
	// into the block memo; MemoHits counts the block replays served from a
	// memo; MemoShared counts the distinct blocks whose memo arrived
	// pre-recorded from a shared MemoStore instead of being walked here.
	// All three are diagnostics: the measured totals are bit-identical
	// either way.
	MemoBlocks int
	MemoHits   uint64
	MemoShared int
}

// Options tunes one Measure call. The zero value replays with a private
// memo and pooled scratch.
type Options struct {
	// Shared, when non-nil, lets this measure serve block memos from (and
	// publish its own recordings to) a store shared with other measures.
	// All measures handed one store must replay the same capture and use
	// encodings that agree on the per-block signature (BlockSize, Funcs,
	// Strategy, BusWidth); see MemoStore.
	Shared *MemoStore

	// Scratch, when non-nil, supplies the per-measure working set from a
	// caller-owned arena instead of the package pool — one arena per
	// sweep worker keeps the hot buffers CPU-local across grid cells. A
	// Scratch must not be used by two measures concurrently.
	Scratch *Scratch
}

// Scratch is a caller-owned arena holding the reusable working set of
// Measure calls.
type Scratch struct {
	s streamScratch
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// Measure replays a captured fetch trace against one encoding. The
// decoder must be freshly built from enc (Strict); it is driven through
// every covered-block fetch exactly as it would sit on the instruction
// bus, and every restored word is checked against the original image.
// The working set is O(covered blocks): coverage is a sorted span table
// derived from the encoding plans and block memos live in a map, however
// large the image or long the trace. Encoded-stream transition totals
// for uncovered regions are not accumulated fetch by fetch: a sequential
// run through uncovered text is one word walk, covered blocks already
// walked replay from their memo, and repeat groups whose decoder/bus
// state proves periodic are fast-forwarded arithmetically. The output is
// bit-identical to driving every fetch, because each shortcut replaces
// iteration of a deterministic state machine over inputs it has already
// seen.
//
// The context is polled inside the replay loop, once per op and every
// CancelCheckStride fetch steps within long runs, so a cancelled replay
// stops within a bounded number of fetches rather than finishing a
// billion-fetch trace; it returns ctx.Err(), unwrapped. A nil context
// disables polling.
func Measure(ctx context.Context, cap *Capture, enc *core.Encoding, dec *hw.Decoder, opts Options) (Result, error) {
	n := len(cap.Words)
	if len(enc.EncodedWords) != n {
		return Result{}, fmt.Errorf("replay: encoded image has %d words, capture has %d", len(enc.EncodedWords), n)
	}
	if cap.Trace == nil || cap.Trace.N == 0 {
		return Result{}, fmt.Errorf("replay: empty trace")
	}
	r := &replayer{
		ctx:    ctx,
		pol:    NewPoller(ctx),
		base:   cap.Base,
		orig:   cap.Words,
		encW:   enc.EncodedWords,
		dec:    dec,
		memoOK: !dec.Protected(),
		shared: opts.Shared,
	}
	var ss *streamScratch
	if opts.Scratch != nil {
		ss = &opts.Scratch.s
	} else {
		ss = streamPool.Get().(*streamScratch)
		defer streamPool.Put(ss)
	}
	r.buildSpans(ss, enc)
	r.step(cap.Trace.First)
	r.runOps(cap.Trace.Ops)
	if r.err != nil {
		return Result{}, r.err
	}
	per := make([]uint64, 32)
	copy(per, r.perLine[:])
	return Result{
		Encoded:        r.total,
		PerLineEncoded: per,
		MemoBlocks:     r.memoCount,
		MemoHits:       r.memoHits,
		MemoShared:     r.memoShared,
	}, nil
}

type replayer struct {
	ctx  context.Context // nil disables cancellation polling
	base uint32
	orig []uint32
	encW []uint32
	dec  *hw.Decoder

	// pol is the shared cancellation-poll schedule (see Poller): the
	// context is consulted every CancelCheckStride fetch steps so the
	// check costs one add+compare per step.
	pol Poller

	// Image model: the sorted covered-span table with its seek cursor,
	// and the memo map. See stream.go.
	spans   []covSpan
	spanCur int
	memo    map[int32]*blockMemo

	// Block-outcome memo. A covered block entered with the decoder idle
	// and non-degraded is a closed system: dispatchInactive overwrites
	// every runtime field on activation, so the block's per-line
	// transition deltas depend only on its start index and the (fixed)
	// encoded image. The first sequential walk through each block records
	// that outcome (verified fetch by fetch like any other); later visits
	// with enough sequential fetches ahead become one table lookup, one
	// entry-word diff and a state reset. memoOK gates the whole machinery
	// off for protected decoders, whose fault bookkeeping makes block
	// outcomes visit-dependent. shared, when set, extends the lookup to a
	// store shared across measures; memoShared counts distinct blocks
	// adopted from it.
	memoOK     bool
	shared     *MemoStore
	rec        memoRec
	memoHits   uint64
	memoCount  int
	memoShared int

	started bool
	lastIdx int32 // index of the previous fetch; bus state is encW[lastIdx]
	total   uint64
	perLine [32]uint64
	err     error
}

// memoRec tracks an in-progress first-visit recording: the next index the
// sequential walk must fetch, how many block words remain, and the
// counter snapshots taken after the entry transition.
type memoRec struct {
	on          bool
	start, next int32
	left        int32
	t0          uint64
	p0          [32]uint64
}

// kindAt classifies an image index: 1 for a covered-block start, 2 for a
// covered interior, 0 for uncovered text.
func (r *replayer) kindAt(idx int32) uint8 {
	if s := r.spanSeek(idx); s < len(r.spans) && r.spans[s].start <= idx {
		if idx == r.spans[s].start {
			return 1
		}
		return 2
	}
	return 0
}

// blockWords returns the word count of the covered block starting at idx;
// valid only where kindAt(idx) == 1.
func (r *replayer) blockWords(idx int32) int32 {
	return r.spans[r.spanSeek(idx)].words
}

// nextCovered returns the smallest covered index at or after idx, or the
// image length when none follows.
func (r *replayer) nextCovered(idx int32) int32 {
	s := r.spanSeek(idx)
	if s == len(r.spans) {
		return int32(len(r.encW))
	}
	if r.spans[s].start <= idx {
		return idx
	}
	return r.spans[s].start
}

// memoAt returns the memo recorded for the block starting at idx, if any,
// consulting the local view first and the shared store second; a shared
// hit is adopted into the local view so later visits skip the lock.
func (r *replayer) memoAt(idx int32) *blockMemo {
	bm := r.memo[idx]
	if bm == nil && r.shared != nil {
		if bm = r.shared.get(idx); bm != nil {
			r.memo[idx] = bm
			r.memoShared++
		}
	}
	return bm
}

// memoPut records a freshly completed block outcome locally and, when a
// shared store is attached, publishes it for other measures.
func (r *replayer) memoPut(idx int32, bm *blockMemo) {
	r.memo[idx] = bm
	r.shared.put(idx, bm)
	r.memoCount++
}

// addRange accumulates the bus transitions of a sequential walk of
// encW[from..to], where encW[from] is already on the bus, by walking
// its words.
func (r *replayer) addRange(from, to int32) {
	for i := from + 1; i <= to; i++ {
		diff := r.encW[i] ^ r.encW[i-1]
		r.total += uint64(bits.OnesCount32(diff))
		for diff != 0 {
			line := bits.TrailingZeros32(diff)
			r.perLine[line]++
			diff &= diff - 1
		}
	}
}

// step replays one fetch through the bus counters and the decoder, and
// feeds the block-memo recorder: a sequential first walk through a covered
// block is recorded as it is verified; any deviation (branch out, error)
// simply abandons the recording.
func (r *replayer) step(idx int32) {
	if idx < 0 || int(idx) >= len(r.encW) {
		if r.err == nil {
			r.err = fmt.Errorf("replay: trace index %d outside text image", idx)
		}
		return
	}
	if r.rec.on && idx != r.rec.next {
		r.rec.on = false
	}
	wasActive := r.dec.Active()
	if !r.rec.on && r.memoOK && !wasActive && r.kindAt(idx) == 1 && r.memoAt(idx) == nil {
		r.rec = memoRec{on: true, start: idx, next: idx, left: r.blockWords(idx)}
	}
	w := r.encW[idx]
	if r.started {
		diff := w ^ r.encW[r.lastIdx]
		r.total += uint64(bits.OnesCount32(diff))
		for diff != 0 {
			line := bits.TrailingZeros32(diff)
			r.perLine[line]++
			diff &= diff - 1
		}
	} else {
		r.started = true
	}
	r.lastIdx = idx
	pc := r.base + uint32(idx)<<2
	restored, err := r.dec.OnFetch(pc, w)
	if err != nil && r.err == nil {
		r.err = err
	}
	if restored != r.orig[idx] && r.err == nil {
		r.err = fmt.Errorf("decoder restored %#08x at pc %#x, want %#08x", restored, pc, r.orig[idx])
	}
	if r.memoOK && wasActive && !r.dec.Active() && r.err == nil {
		// Covered-block exit: the decoder is idle, cannot be degraded
		// (memoOK implies unprotected, and only protection engages the
		// fallback path), and every other stream field is dead until the
		// next activation overwrites it — so pin the state to its zero
		// value. The stepped exit then matches the memoised exit
		// (applyMemo restores the zero state) exactly, which keeps the
		// repeat-group periodicity check effective across mixed
		// stepped/memoised iterations, and makes block memos independent
		// of which TT slots a configuration gave the block — the property
		// MemoStore sharing rests on.
		r.dec.SetStreamState(hw.StreamState{})
	}
	if r.rec.on {
		if r.err != nil {
			r.rec.on = false
			return
		}
		if idx == r.rec.start {
			// Snapshot after the entry transition: the memo stores only
			// the interior deltas, which are entry-independent.
			r.rec.t0, r.rec.p0 = r.total, r.perLine
		}
		r.rec.next = idx + 1
		if r.rec.left--; r.rec.left == 0 {
			bm := &blockMemo{
				interior: r.total - r.rec.t0,
				words:    r.blockWords(r.rec.start),
			}
			for l := 0; l < 32; l++ {
				bm.perLine[l] = r.perLine[l] - r.rec.p0[l]
			}
			r.memoPut(r.rec.start, bm)
			r.rec.on = false
		}
	}
}

// applyMemo replays one whole covered block from its recorded outcome: the
// entry transition is recomputed from the actual previous bus word, the
// interior deltas come from the memo, and the decoder lands in the
// normalised idle exit state. Only valid when the bus has a previous word
// (started), the decoder is idle, and the fetch stream is known to walk
// the block sequentially to its tail.
func (r *replayer) applyMemo(idx int32, bm *blockMemo) {
	diff := r.encW[idx] ^ r.encW[r.lastIdx]
	r.total += uint64(bits.OnesCount32(diff)) + bm.interior
	for diff != 0 {
		line := bits.TrailingZeros32(diff)
		r.perLine[line]++
		diff &= diff - 1
	}
	for l := 0; l < 32; l++ {
		r.perLine[l] += bm.perLine[l]
	}
	r.lastIdx = idx + bm.words - 1
	r.dec.SetStreamState(hw.StreamState{})
	r.memoHits++
	r.rec.on = false
}

// poll consumes one fetch step on the shared poll schedule, recording
// ctx.Err() as the replay error; it reports whether the replay should
// stop.
func (r *replayer) poll() bool {
	if err := r.pol.Tick(); err != nil {
		if r.err == nil {
			r.err = err
		}
		return true
	}
	return false
}

// runRun replays one delta run: count fetches each stepping delta.
func (r *replayer) runRun(delta int32, count int64) {
	if r.err != nil {
		return
	}
	if delta != 1 || !r.started {
		for ; count > 0 && r.err == nil; count-- {
			if r.poll() {
				return
			}
			r.step(r.lastIdx + delta)
		}
		return
	}
	for count > 0 && r.err == nil {
		if r.poll() {
			return
		}
		idx := r.lastIdx + 1
		if int(idx) >= len(r.encW) {
			r.step(idx) // sets the out-of-image error
			return
		}
		kind := r.kindAt(idx)
		if r.dec.Active() || kind != 0 {
			if r.memoOK && kind == 1 && !r.dec.Active() {
				// Sequential entry into a memoised block with the whole
				// block ahead in this run: replay it from the memo.
				if bm := r.memoAt(idx); bm != nil && count >= int64(bm.words) {
					r.applyMemo(idx, bm)
					count -= int64(bm.words)
					continue
				}
			}
			r.step(idx)
			count--
			continue
		}
		span := int64(r.nextCovered(idx)) - int64(idx)
		if span > count {
			span = count
		}
		b := idx + int32(span) - 1
		r.addRange(r.lastIdx, b)
		r.lastIdx = b
		count -= span
	}
}

func (r *replayer) runOps(ops []Op) {
	for i := 0; i < len(ops); i++ {
		if r.err != nil {
			return
		}
		if r.ctx != nil && r.ctx.Err() != nil {
			r.err = r.ctx.Err()
			return
		}
		op := &ops[i]
		if op.Repeat > 0 {
			r.runRepeat(op)
			continue
		}
		// Branch-landing memo: loop traces reach a block start as the last
		// fetch of a branch op, with the block interior at the head of the
		// following +1 run. If that landing block is memoised and the next
		// op sequentially covers its interior, replay the pair as
		// (branch prefix, memo, run remainder).
		if r.memoOK && r.started && op.Count >= 1 && i+1 < len(ops) {
			if next := &ops[i+1]; next.Repeat == 0 && next.Delta == 1 {
				if land := r.landing(op); land >= 0 && r.kindAt(land) == 1 {
					if bm := r.memoAt(land); bm != nil && next.Count >= int64(bm.words)-1 {
						r.runRun(op.Delta, op.Count-1)
						if r.err != nil {
							return
						}
						if !r.dec.Active() && r.lastIdx+op.Delta == land {
							r.applyMemo(land, bm)
							r.runRun(1, next.Count-(int64(bm.words)-1))
							i++ // next op consumed
						} else {
							r.runRun(op.Delta, 1) // finish op normally
						}
						continue
					}
				}
			}
		}
		r.runRun(op.Delta, op.Count)
	}
}

// landing returns the image index of an op's final fetch, or -1 when it
// falls outside the image (the step path will report that as an error).
func (r *replayer) landing(op *Op) int32 {
	t := int64(r.lastIdx) + int64(op.Delta)*op.Count
	if t < 0 || t >= int64(len(r.encW)) {
		return -1
	}
	return int32(t)
}

// streamState is everything the next fetch's outcome can depend on.
type streamState struct {
	lastIdx int32
	dec     hw.StreamState
}

func (r *replayer) state() streamState {
	return streamState{lastIdx: r.lastIdx, dec: r.dec.StreamState()}
}

// runRepeat replays a repeat group. After two full body replays, if the
// stream state has returned to its value one period earlier, every further
// period contributes exactly the same transition deltas — so the remaining
// repeats are added arithmetically. Loops whose state is not periodic
// (for example a body whose net index displacement is nonzero) replay
// iteratively and stay exact.
func (r *replayer) runRepeat(op *Op) {
	done := int64(0)
	if op.Repeat >= 3 {
		r.runOps(op.Body)
		done++
		if r.err != nil {
			return
		}
		s1 := r.state()
		t1, p1 := r.total, r.perLine
		r.runOps(op.Body)
		done++
		if r.err != nil {
			return
		}
		if s1 == r.state() {
			k := uint64(op.Repeat - done)
			r.total += k * (r.total - t1)
			for l := 0; l < 32; l++ {
				r.perLine[l] += k * (r.perLine[l] - p1[l])
			}
			return
		}
	}
	for ; done < op.Repeat && r.err == nil; done++ {
		r.runOps(op.Body)
	}
}
