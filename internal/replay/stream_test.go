package replay

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/cpu"
	"imtrans/internal/hw"
)

// streamLoopSrc has a hot inner loop nested in an outer loop plus cold
// straight-line stretches, so its trace exercises runs, branch landings
// and repeat groups.
const streamLoopSrc = `
	li   $t0, 40
	li   $t4, 0
outer:
	li   $t1, 50
	li   $t2, 1
inner:
	addu $t2, $t2, $t1
	sll  $t3, $t2, 1
	xor  $t2, $t2, $t3
	srl  $t3, $t2, 3
	addu $t4, $t4, $t3
	addiu $t1, $t1, -1
	bgtz $t1, inner
	addiu $t0, $t0, -1
	bgtz $t0, outer
	li $v0, 10
	syscall
`

// captureSource assembles and runs src, returning a replay capture of its
// fetch stream — the internal-package equivalent of the facade's capture
// path, without the baseline comparators.
func captureSource(t *testing.T, src string) *Capture {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, nil)
	if err != nil {
		t.Fatalf("cpu: %v", err)
	}
	b := NewBuilder()
	c.OnFetch = func(pc, word uint32) { b.Add(int(pc-obj.TextBase) / 4) }
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := cfg.Build(obj.TextBase, obj.TextWords)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return &Capture{
		Base:         obj.TextBase,
		Words:        obj.TextWords,
		Graph:        g,
		Trace:        b.Trace(),
		Profile:      append([]uint64(nil), c.Profile()...),
		Instructions: c.InstCount,
	}
}

// measureWith encodes cp under cfg and replays it with the given options
// on a fresh strict decoder.
func measureWith(t *testing.T, cp *Capture, cfg core.Config, opts Options) Result {
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
	res, err := Measure(nil, cp, enc, dec, opts)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	return res
}

// TestStreamingStateIsBlockBounded whitebox-checks the replay working
// set: the arena must hold per-block state only, never per-word arrays.
func TestStreamingStateIsBlockBounded(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	enc, err := core.Encode(cp.Graph, cp.Profile, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		t.Fatal(err)
	}
	dec.Strict = true
	arena := NewScratch()
	if _, err := Measure(nil, cp, enc, dec, Options{Scratch: arena}); err != nil {
		t.Fatal(err)
	}
	if got, max := cap(arena.s.spans), len(enc.Plans); got > max {
		t.Errorf("span table capacity %d exceeds covered-block count %d", got, max)
	}
	if got, max := len(arena.s.memo), len(enc.Plans); got > max {
		t.Errorf("memo map holds %d entries, more than the %d covered blocks", got, max)
	}
}

// TestMemoStoreSharing replays one capture under four configurations that
// share the per-block signature but disagree on selection and capacity.
// With a shared store, later cells must adopt earlier cells' memos (fewer
// local recordings, MemoShared > 0) and still produce totals identical to
// unshared replays.
func TestMemoStoreSharing(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cfgs := []core.Config{
		{},
		{TTEntries: 32},
		{TTEntries: 8, BBITEntries: 4},
		{Selection: core.Knapsack},
	}
	store := NewMemoStore()
	var recorded, adopted int
	for i, cfg := range cfgs {
		solo := measureWith(t, cp, cfg, Options{})
		shared := measureWith(t, cp, cfg, Options{Shared: store})
		if solo.Encoded != shared.Encoded ||
			!reflect.DeepEqual(solo.PerLineEncoded, shared.PerLineEncoded) {
			t.Fatalf("config %d: shared-store totals diverge: %d != %d", i, shared.Encoded, solo.Encoded)
		}
		recorded += shared.MemoBlocks
		adopted += shared.MemoShared
		if i > 0 && shared.MemoShared == 0 {
			t.Errorf("config %d adopted no shared memos", i)
		}
	}
	if adopted == 0 {
		t.Fatal("no memo crossed configurations")
	}
	if store.Blocks() == 0 || store.Hits() == 0 {
		t.Errorf("store stats idle: %d blocks, %d hits", store.Blocks(), store.Hits())
	}
	// Every distinct covered block is recorded exactly once across the
	// group: total local recordings equal the store population.
	if recorded != store.Blocks() {
		t.Errorf("%d local recordings for %d distinct blocks: duplicate first walks", recorded, store.Blocks())
	}
}

// TestMemoStoreConcurrent races many measures of the same signature group
// against one store; -race proves the publication protocol, equality
// proves results stay exact under interleaving.
func TestMemoStoreConcurrent(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	want := measureWith(t, cp, core.Config{}, Options{})
	store := NewMemoStore()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc, err := core.Encode(cp.Graph, cp.Profile, core.Config{})
			if err != nil {
				errs[g] = err
				return
			}
			dec, err := hw.NewDecoder(enc)
			if err != nil {
				errs[g] = err
				return
			}
			dec.Strict = true
			res, err := Measure(nil, cp, enc, dec, Options{Shared: store})
			if err != nil {
				errs[g] = err
				return
			}
			if res.Encoded != want.Encoded {
				errs[g] = &mismatchError{got: res.Encoded, want: want.Encoded}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

type mismatchError struct{ got, want uint64 }

func (e *mismatchError) Error() string { return "total mismatch" }

// countdownCtx counts Err() polls and reports cancellation from the
// fire-th poll on — a deterministic probe for the replay loops' poll
// points, unlike timer-based cancellation.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	fire  int64 // 0 = never fire, only count
}

func (c *countdownCtx) Err() error {
	if n := c.polls.Add(1); c.fire > 0 && n >= c.fire {
		return context.Canceled
	}
	return nil
}

// TestCancellationPollParity pins the cancellation contract of the
// replay engine. The poll schedule — one context check per trace op plus
// one every CancelCheckStride fetch steps inside runs — is the same on
// every run of a measurement, and a context that fires at a poll in the
// middle of the replay must abort it with ctx.Err(), unwrapped.
func TestCancellationPollParity(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	measure := func(ctx context.Context) error {
		enc, err := core.Encode(cp.Graph, cp.Profile, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		dec.Strict = true
		_, err = Measure(ctx, cp, enc, dec, Options{})
		return err
	}

	polls := make([]int64, 2)
	for i := range polls {
		ctr := &countdownCtx{Context: context.Background()}
		if err := measure(ctr); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		polls[i] = ctr.polls.Load()
	}
	if polls[0] != polls[1] {
		t.Errorf("poll schedule is not deterministic: %d then %d polls", polls[0], polls[1])
	}
	if polls[0] < 2 {
		t.Fatalf("only %d polls over the whole trace; mid-replay cancellation has no coverage", polls[0])
	}

	ctr := &countdownCtx{Context: context.Background(), fire: polls[0] / 2}
	if err := measure(ctr); err != context.Canceled {
		t.Errorf("mid-replay cancellation returned %v, want context.Canceled", err)
	}
	if got := ctr.polls.Load(); got >= polls[0] {
		t.Errorf("cancelled replay ran its whole poll schedule (%d polls)", got)
	}
}
