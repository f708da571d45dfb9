package imtrans

import (
	"context"
	"testing"

	"imtrans/internal/stats"
)

// gridView is a grid entry point's result projected onto the supervision
// surface SweepResult and CompareResult share.
type gridView struct {
	done      [][]bool
	baseline  [][]uint64 // per cell; zero for cells without a result
	errs      []gridViewErr
	completed int
	cancelled int
	counters  *stats.Counters
	prefix    string
}

type gridViewErr struct {
	bench   string
	bi, col int
	stage   string
	err     error
}

// counter reads an entry-point-prefixed counter: "failed" is sweep_failed
// on a sweep and compare_failed on a compare.
func (v *gridView) counter(name string) uint64 { return v.counters.Get(v.prefix + name) }

// supervisedGrid drives one grid entry point over a benchmark list and a
// selection of its columns (indices into the adapter's own column list),
// so each supervision test checks the sweep and the compare with the same
// assertions.
type supervisedGrid struct {
	name string
	run  func(ctx context.Context, benches []Benchmark, cols []int, opts SweepOptions) (*gridView, error)
}

// firstCols is the default two-column grid of the supervision tests.
var firstCols = []int{0, 1}

var supervisedGrids = []supervisedGrid{
	{name: "sweep", run: func(ctx context.Context, benches []Benchmark, cols []int, opts SweepOptions) (*gridView, error) {
		all := append(append([]Config(nil), sweepTestConfigs...), Config{BlockSize: 6}, Config{BlockSize: 7})
		cfgs := make([]Config, len(cols))
		for i, c := range cols {
			cfgs[i] = all[c]
		}
		res, err := SweepMeasureCtx(ctx, benches, cfgs, opts)
		if res == nil {
			return nil, err
		}
		v := &gridView{done: res.Done, completed: res.Completed, cancelled: res.Cancelled,
			counters: &res.Counters, prefix: "sweep_"}
		for bi, row := range res.Measurements {
			v.baseline = append(v.baseline, make([]uint64, len(row)))
			for ci, m := range row {
				v.baseline[bi][ci] = m.Baseline
			}
		}
		for _, e := range res.Errors {
			v.errs = append(v.errs, gridViewErr{e.Benchmark, e.BenchIndex, e.ConfigIndex, e.Stage, e.Err})
		}
		return v, err
	}},
	{name: "compare", run: func(ctx context.Context, benches []Benchmark, cols []int, opts SweepOptions) (*gridView, error) {
		all := []SchemeSpec{{Name: "paper"}, {Name: "businvert"}, {Name: "dictionary"}, {Name: "gray"}}
		specs := make([]SchemeSpec, len(cols))
		for i, c := range cols {
			specs[i] = all[c]
		}
		res, err := CompareMeasureCtx(ctx, benches, specs, opts)
		if res == nil {
			return nil, err
		}
		v := &gridView{done: res.Done, completed: res.Completed, cancelled: res.Cancelled,
			counters: &res.Counters, prefix: "compare_"}
		for bi, row := range res.Results {
			v.baseline = append(v.baseline, make([]uint64, len(row)))
			for si, m := range row {
				v.baseline[bi][si] = m.Baseline
			}
		}
		for _, e := range res.Errors {
			v.errs = append(v.errs, gridViewErr{e.Benchmark, e.BenchIndex, e.SchemeIndex, e.Stage, e.Err})
		}
		return v, err
	}},
}

// forEachGrid runs f once per grid entry point, as a subtest.
func forEachGrid(t *testing.T, f func(t *testing.T, g supervisedGrid)) {
	for _, g := range supervisedGrids {
		t.Run(g.name, func(t *testing.T) { f(t, g) })
	}
}

// TestGridIdentityGolden pins the checkpoint identity of both grid kinds
// on one fixed two-benchmark grid. A journal is resumed only when this
// hash matches, so a change that shifts it makes every upgraded daemon
// refuse the journals its in-flight jobs left behind.
func TestGridIdentityGolden(t *testing.T) {
	benches := []Benchmark{mustBench(t, "mmul").WithScale(24, 1), mustBench(t, "sor").WithScale(32, 2)}
	sweep, benchNames, cfgNames := sweepGrid(benches, []Config{{BlockSize: 4}, {BlockSize: 5, TTEntries: 4, Knapsack: true}})
	if want := "bd7070b19dd35f1075af1ceb3210cf1c6653bcb7983bfa6cbcf987a421dfce7e"; sweep != want {
		t.Errorf("sweepGrid = %s, want %s", sweep, want)
	}
	specs := []SchemeSpec{{Name: "paper", Config: Config{BlockSize: 5}}, {Name: "dictionary", Entries: 64}, {Name: "lwc", ExtraLines: 2}}
	compare, _, specNames := compareGrid(benches, specs)
	if want := "7684fc431a6e561ba40ed4b4a65cc735e74c98bed1a6873d19fdde842e401697"; compare != want {
		t.Errorf("compareGrid = %s, want %s", compare, want)
	}
	if len(benchNames) != 2 || benchNames[0] != "mmul" || benchNames[1] != "sor" {
		t.Errorf("bench names = %v", benchNames)
	}
	if len(cfgNames) != 2 || len(specNames) != 3 {
		t.Errorf("column names = %v / %v", cfgNames, specNames)
	}
}
