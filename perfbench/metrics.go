package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name, Unit string
}

// e2eMetrics are printed by every untraced run of every workload and
// carry BENCHMARK.json's regression bounds; see README.md for what each
// means on each workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// unboundMetrics are measured like the end-to-end metrics, with tracing
// off, and printed in every run's report, but carry no regression bound.
// They are wall-clock rates and latencies, and on the shared host the
// benchmark was defined on they followed the hypervisor's steal time:
// over ten runs that straddled quiet and stolen minutes (under 1 % and
// 20-30 % steal), serve-grid's p50 spread 0.28 and its capacity 0.32,
// and p90 more, past the largest bound a metric may have (0.25), while
// cpu_ms_per_op spread 0.07. The result line carries them among the
// per-layer metrics of a traced run.
var unboundMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"p90_ms", "ms"},
}

// untracedMetrics are every metric a run measures with tracing off.
func untracedMetrics() []metricDef {
	return append(append([]metricDef(nil), e2eMetrics...), unboundMetrics...)
}

// schemeCellMetric names the per-scheme cell-time metric.
func schemeCellMetric(name string) string { return "scheme." + name + ".cell_us" }

// overheadMetric names the tracing overhead of one end-to-end metric:
// its traced value minus its untraced value in the same invocation.
func overheadMetric(name string) string { return "trace.overhead." + name }

// profilePackages are the packages whose CPU self-time share the traced
// run reports, from the binaries' -cpuprofile. "other" takes the rest.
var profilePackages = []string{
	"cpu", "mem", "trace", "replay", "baseline", "cfg", "core", "code", "bitline",
	"hw", "scheme", "wsq", "server", "cas", "jobs", "checkpoint", "imtrans",
	"json", "net", "runtime", "other",
}

// layerMetrics are printed by every traced run of every workload.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"cpu.ms", "ms"},
		{"cpu.mips", "MIPS"},
		{"capture.ms", "ms"},
		{"capture.over_sim", "ratio"},
		{"resim.addrbus_over_sim", "ratio"},
		{"resim.icache_over_sim", "ratio"},
		{"resim.databus_over_sim", "ratio"},
		{"resim.sched_over_sim", "ratio"},
		{"artifact.fig6_s", "s"},
		{"artifact.cache_s", "s"},
		{"artifact.addrbus_s", "s"},
		{"artifact.sched_s", "s"},
		{"artifact.ablations_s", "s"},
		{"artifact.extras_s", "s"},
		{"core.encode_us", "us"},
		{"replay.cell_us", "us"},
		{"replay.memo_hit_ratio", "ratio"},
	}
	for _, s := range schemeNames {
		m = append(m, metricDef{schemeCellMetric(s), "us"})
	}
	m = append(m,
		metricDef{"scheme.memo_hits_per_cell", "count"},
		metricDef{"grid.busy_share", "ratio"},
		metricDef{"grid.cells_per_s", "1/s"},
		metricDef{"server.overhead_ms", "ms"},
		metricDef{"server.resp_kb", "KB"},
		metricDef{"server.result_hit_ratio", "ratio"},
		metricDef{"capture.miss_ratio", "ratio"},
		metricDef{"cas.tier_hit_ratio", "ratio"},
		metricDef{"cas.puts", "count"},
		metricDef{"cas.mb", "MB"},
		metricDef{"checkpoint.cell_us", "us"},
		metricDef{"jobs.job_s", "s"},
	)
	for _, p := range profilePackages {
		m = append(m, metricDef{"profile." + p + "_share", "ratio"})
	}
	m = append(m, unboundMetrics...)
	for _, e := range untracedMetrics() {
		m = append(m, metricDef{"traced." + e.Name, e.Unit})
	}
	for _, e := range untracedMetrics() {
		m = append(m, metricDef{overheadMetric(e.Name), e.Unit})
	}
	m = append(m, metricDef{"trace.span_cost_pct", "%"})
	return m
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics object for defs from values, refusing a
// missing, non-finite or badly named metric so a run never prints a
// partial result.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]", d.Name)
		}
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" definition); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (no events to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
