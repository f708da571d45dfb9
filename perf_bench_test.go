package imtrans

// Hot-path benchmarks for the measurement pipeline: the CPU fetch loop,
// encoding-plan construction, and the capture/replay engine against the
// reference two-run simulate pipeline. CI runs these with -benchtime=1x as
// a smoke test; locally, `go test -bench 'Perf' -run -` gives the numbers
// behind BENCH_sweep.json (which `imtrans bench -json` regenerates).

import (
	"testing"
)

func perfBenchmark(b *testing.B, name string) Benchmark {
	b.Helper()
	bm, err := BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return testScale(bm)
}

// BenchmarkPerfCPUFetchLoop is the raw simulator: one full run of the mmul
// kernel per iteration, no bus sinks attached.
func BenchmarkPerfCPUFetchLoop(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	p, err := bm.Program()
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := newMachine(p, bm.setup)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		insts = m.InstCount
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insts)*float64(b.N)/s, "inst/s")
	}
}

// BenchmarkPerfCapture is the capture run: one profiling simulation of
// the kernel per iteration with the trace builder on the CPU's range sink
// and the data bus summed inline, plus the stream totals derived after
// it — everything a capture-cache miss costs.
func BenchmarkPerfCapture(b *testing.B) {
	for _, name := range []string{"mmul", "lu"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			bm := perfBenchmark(b, name)
			p, err := bm.Program()
			if err != nil {
				b.Fatal(err)
			}
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := captureRun(p, bm.setup, nil)
				if err != nil {
					b.Fatal(err)
				}
				insts = c.Instructions
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(insts)*float64(b.N)/s, "inst/s")
			}
		})
	}
}

// BenchmarkPerfCoreEncode plans one k=5 encoding (graph, chains, TT/BBIT
// allocation, encoded image) from a precomputed profile per iteration —
// the per-configuration cost the parallel sweep fans out.
func BenchmarkPerfCoreEncode(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	p, err := bm.Program()
	if err != nil {
		b.Fatal(err)
	}
	m, err := newMachine(p, bm.setup)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	profile := append([]uint64(nil), m.Profile()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeProgram(p, profile, Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfSimulateMeasure is the reference pipeline: two full
// simulations per measurement call.
func BenchmarkPerfSimulateMeasure(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	for i := 0; i < b.N; i++ {
		if _, err := bm.SimulateMeasure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfReplayMeasureWarm is the same measurement through the
// capture/replay engine with the trace already cached — the cost every
// measurement after the first pays.
func BenchmarkPerfReplayMeasureWarm(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
		b.Fatal(err) // prime the capture cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfReplayMeasureCold includes the capture: one profiling
// simulation plus one replay per iteration.
func BenchmarkPerfReplayMeasureCold(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	for i := 0; i < b.N; i++ {
		ClearCaptureCache()
		if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfSweep evaluates the Figure 6 grid (six kernels, four block
// sizes) per iteration from a cold cache, the workload BENCH_sweep.json
// times.
func BenchmarkPerfSweep(b *testing.B) {
	b.ReportAllocs()
	var benches []Benchmark
	for _, bm := range Benchmarks() {
		benches = append(benches, testScale(bm))
	}
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}
	for i := 0; i < b.N; i++ {
		ClearCaptureCache()
		if _, err := SweepMeasure(benches, cfgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
