package imtrans

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/replay"
)

// testScale shrinks a benchmark — paper suite or extra — to test-sized
// problems (the same scales cmd/reproduce -small uses).
func testScale(b Benchmark) Benchmark {
	switch b.Name {
	case "crc32":
		return b.WithScale(4096, 2)
	case "iir":
		return b.WithScale(2048, 3)
	case "conv2d":
		return b.WithScale(24, 2)
	case "mmul":
		return b.WithScale(24, 0)
	case "sor":
		return b.WithScale(32, 2)
	case "ej":
		return b.WithScale(24, 4)
	case "fft":
		return b.WithScale(64, 0)
	case "tri":
		return b.WithScale(32, 10)
	case "lu":
		return b.WithScale(24, 0)
	}
	return b
}

// replayTestConfigs exercises every pipeline variant the replay path must
// reproduce: the Figure 6 block sizes plus exact chaining, knapsack TT
// allocation, the 16-function space, and table budgets below and above
// the default — a superset of the `imtrans bench -json` grid.
var replayTestConfigs = []Config{
	{BlockSize: 4},
	{BlockSize: 5},
	{BlockSize: 6},
	{BlockSize: 7},
	{BlockSize: 5, Exact: true},
	{BlockSize: 5, Knapsack: true},
	{BlockSize: 5, AllFunctions: true},
	{BlockSize: 5, TTEntries: 4},
	{BlockSize: 5, TTEntries: 8},
	{BlockSize: 5, TTEntries: 32},
}

// TestReplayMatchesSimulate is the tentpole equivalence check: for every
// paper kernel and every configuration variant, the capture/replay engine
// must produce Measurements identical — every field, bit for bit — to the
// reference two-run simulate pipeline.
func TestReplayMatchesSimulate(t *testing.T) {
	for _, b := range Benchmarks() {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := simulateMeasure(p, b.setup, replayTestConfigs...)
			if err != nil {
				t.Fatalf("simulateMeasure: %v", err)
			}
			rep, err := b.Measure(replayTestConfigs...)
			if err != nil {
				t.Fatalf("Measure (replay): %v", err)
			}
			if len(sim) != len(rep) {
				t.Fatalf("got %d replay measurements, want %d", len(rep), len(sim))
			}
			for i := range sim {
				if !reflect.DeepEqual(sim[i], rep[i]) {
					t.Errorf("config %v: replay measurement differs from simulate\nsimulate: %+v\nreplay:   %+v",
						replayTestConfigs[i], sim[i], rep[i])
				}
			}
		})
	}
}

// TestReplayMeasureProgramFacade checks the program-level facade,
// MeasureProgram, against the two-run simulate oracle on a plain assembly
// program with no setup callback.
func TestReplayMeasureProgramFacade(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulateMeasure(p, nil, Config{BlockSize: 5}, Config{BlockSize: 6, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureProgram(p, nil, Config{BlockSize: 5}, Config{BlockSize: 6, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, rep) {
		t.Errorf("MeasureProgram differs from the simulate oracle\nsimulate: %+v\nreplay:   %+v", sim, rep)
	}
}

// TestSweepMeasureDeterministic runs the full benchmark/config grid at
// parallelism 1 and parallelism 8 (from a cold capture cache each time)
// and requires byte-identical results. CI runs this under -race, which
// also exercises the worker pools for data races.
func TestSweepMeasureDeterministic(t *testing.T) {
	var benches []Benchmark
	for _, b := range Benchmarks() {
		benches = append(benches, testScale(b))
	}
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}

	sweep := func(par int) [][]Measurement {
		t.Helper()
		ClearCaptureCache()
		res, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{Parallelism: par})
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("SweepMeasureCtx j=%d: %v", par, err)
		}
		return res.Measurements
	}
	serial, parallel := sweep(1), sweep(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("SweepMeasureCtx results depend on parallelism")
	}
	// And the grid must agree with per-benchmark Measure.
	for bi, b := range benches {
		ms, err := b.Measure(cfgs...)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !reflect.DeepEqual(serial[bi], ms) {
			t.Errorf("%s: sweep row differs from Measure", b.Name)
		}
	}
}

// TestReplayMemoExercised drives the replay engine directly against a
// loop-heavy kernel and requires the block-outcome memo to fire: at least
// one covered block recorded on first visit, and later loop iterations of
// it served from the memo. The equivalence tests above then guarantee the
// memoised totals are bit-identical to the simulate pipeline.
func TestReplayMemoExercised(t *testing.T) {
	ClearCaptureCache()
	for _, name := range []string{"tri", "sor"} {
		b := testScale(mustBench(t, name))
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		cap, err := captureProgram(p, b.setup, b.captureSalt())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := core.Encode(cap.Graph, cap.Profile, Config{BlockSize: 5}.coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		dec.Strict = true
		res, err := replay.Measure(nil, cap, enc, dec, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MemoBlocks == 0 {
			t.Errorf("%s: no covered block was memoised", name)
		}
		if res.MemoHits == 0 {
			t.Errorf("%s: memo recorded %d blocks but served no replays", name, res.MemoBlocks)
		}
		t.Logf("%s: %d blocks memoised, %d replays served from the memo", name, res.MemoBlocks, res.MemoHits)
	}
}

// TestCaptureCacheReuse verifies that repeated measurements of one
// benchmark simulate exactly once.
func TestCaptureCacheReuse(t *testing.T) {
	ClearCaptureCache()
	b := testScale(mustBench(t, "sor"))
	if _, err := b.Measure(Config{BlockSize: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Measure(Config{BlockSize: 6}, Config{BlockSize: 7}); err != nil {
		t.Fatal(err)
	}
	hits, misses := CaptureCacheStats()
	if misses != 1 {
		t.Errorf("benchmark was profiled %d times, want 1", misses)
	}
	if hits != 1 {
		t.Errorf("capture cache hits = %d, want 1", hits)
	}
}

// TestProgramMemoized verifies that a Benchmark assembles its program once
// per scale and that rescaling produces a fresh program.
func TestProgramMemoized(t *testing.T) {
	b := testScale(mustBench(t, "mmul"))
	p1, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Program() reassembled at an unchanged scale")
	}
	same := b.WithScale(b.N, b.Iters)
	p3, err := same.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("WithScale with identical values dropped the memo")
	}
	bigger := b.WithScale(b.N+8, 0)
	p4, err := bigger.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("WithScale to a new size returned the old program")
	}
	if p5, _ := b.Program(); p5 != p1 {
		t.Error("rescaled copy corrupted the original benchmark's memo")
	}
}

func mustBench(t *testing.T, name string) Benchmark {
	t.Helper()
	b, err := BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceProgramMatchesSimulate holds TraceProgram, which walks one
// captured fetch trace, to the two-run simulate oracle entry for entry.
func TestTraceProgramMatchesSimulate(t *testing.T) {
	loop, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name  string
		p     *Program
		setup func(Memory) error
	}
	inputs := []input{{"testLoop", loop, nil}}
	for _, name := range []string{"sor", "crc32"} {
		b := testScale(mustBench(t, name))
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, p, b.setup})
	}
	for _, in := range inputs {
		for _, c := range []Config{{BlockSize: 4}, {}} {
			for _, n := range []int{0, 1000} {
				want, err := simulateTrace(in.p, in.setup, c, n)
				if err != nil {
					t.Fatalf("%s %v: oracle: %v", in.name, c, err)
				}
				got, err := TraceProgram(in.p, in.setup, c, n)
				if err != nil {
					t.Fatalf("%s %v: %v", in.name, c, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v n=%d: TraceProgram differs from the simulate oracle", in.name, c, n)
				}
			}
		}
	}
}

// TestSetupCaptureNotCached checks that a setup callback never reaches the
// capture cache, whose key hashes the program but cannot see what the
// callback writes: two setups giving one program different trip counts
// must give different traces and measurements — through every
// program-level study that reads a capture — and the cache must not
// move.
func TestSetupCaptureNotCached(t *testing.T) {
	p, err := Assemble(`
		li  $t0, 0x10010000
		lw  $t1, 0($t0)
	loop:
		addu $t2, $t2, $t1
		sll  $t3, $t2, 3
		xor  $t4, $t3, $t1
		addiu $t1, $t1, -1
		bgtz $t1, loop
		li $v0, 10
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	trips := func(n uint32) func(Memory) error {
		return func(m Memory) error { return m.StoreWord(DataBase, n) }
	}
	a, b := trips(40), trips(90)
	hits0, misses0 := CaptureCacheStats()
	textA, err := TraceText(p, a)
	if err != nil {
		t.Fatal(err)
	}
	textB, err := TraceText(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(textA, textB) {
		t.Error("TraceText served one setup's trace for another")
	}
	msA, err := MeasureProgram(p, a, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	msB, err := MeasureProgram(p, b, Config{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if msA[0].Instructions == msB[0].Instructions || msA[0].Baseline == msB[0].Baseline {
		t.Errorf("MeasureProgram served one setup's capture for another: %+v vs %+v", msA[0], msB[0])
	}
	abA, err := MeasureAddressBus(p, a)
	if err != nil {
		t.Fatal(err)
	}
	abB, err := MeasureAddressBus(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if abA.Binary == abB.Binary {
		t.Errorf("MeasureAddressBus served one setup's capture for another: %+v vs %+v", abA, abB)
	}
	if hits, misses := CaptureCacheStats(); hits != hits0 || misses != misses0 {
		t.Errorf("capture cache moved from %d/%d to %d/%d hits/misses on setup-driven captures",
			hits0, misses0, hits, misses)
	}
}
