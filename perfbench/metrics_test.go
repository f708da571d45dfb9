package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMetricNamesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-], starting with a letter or digit", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q defined twice", d.Name)
			}
			seen[d.Name] = true
			if d.Unit == "" || len(d.Unit) > 16 {
				t.Errorf("metric %q has unit %q", d.Name, d.Unit)
			}
		}
	}
	if !metricName.MatchString("a.b_c-1") || metricName.MatchString("bad name") ||
		metricName.MatchString("_lead") || metricName.MatchString("x{y}") {
		t.Error("metric name pattern accepts or refuses the wrong names")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the harness prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the harness %s %s", what, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, w.Name, workloadOrder[i])
		}
	}
}

func TestCollectRefusesPartialResults(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	if _, err := collect(defs, map[string]float64{"a_ms": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_ms": math.NaN(), "b": 1}); err == nil {
		t.Error("a NaN metric was accepted")
	}
	if _, err := collect([]metricDef{{"bad name", "s"}}, map[string]float64{"bad name": 1}); err == nil {
		t.Error("a badly named metric was accepted")
	}
	m, err := collect(defs, map[string]float64{"a_ms": 1.5, "b": 2, "extra": 3})
	if err != nil || len(m) != 2 || m["a_ms"].Value != 1.5 || m["a_ms"].Unit != "ms" {
		t.Errorf("collect = %v, %v", m, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.9) != 7 {
		t.Error("quantile of 0 or 1 samples is wrong")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# TYPE x counter\nimtransd_cache_hits_total 12\nimtransd_jobs{state=\"done\"} 3\nbad\n"))
	if m["imtransd_cache_hits_total"] != 12 || m[`imtransd_jobs{state="done"}`] != 3 || len(m) != 2 {
		t.Errorf("parseMetrics = %v", m)
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: imtransd
Type: cpu
Showing nodes accounting for 2.50s, 100% of 2.50s total
      flat  flat%   sum%        cum   cum%
     1.50s 60.00% 60.00%      1.60s 64.00%  imtrans/internal/cpu.(*CPU).Step
     500ms 20.00% 80.00%      0.50s 20.00%  imtrans/internal/trace.(*Bus).Transfer (inline)
     0.30s 12.00% 92.00%      0.30s 12.00%  runtime.mallocgc
     0.20s  8.00%   100%      0.20s  8.00%  encoding/json.(*decodeState).object
         0     0%   100%      2.50s   100%  main.main
`)
	flat, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"imtrans/internal/cpu": 1.5, "imtrans/internal/trace": 0.5, "runtime": 0.3, "encoding/json": 0.2, "main": 0}
	for k, w := range want {
		if math.Abs(flat[k]-w) > 1e-9 {
			t.Errorf("flat[%s] = %v, want %v", k, flat[k], w)
		}
	}
	if _, err := parsePprofTop([]byte("no table here")); err == nil {
		t.Error("output without a table was accepted")
	}
	for pkg, bucket := range map[string]string{
		"imtrans/internal/cpu": "cpu", "imtrans": "imtrans", "imtrans/internal/prof": "other",
		"encoding/json": "json", "net/http": "net", "runtime": "runtime", "main": "other",
	} {
		if got := profileBucket(pkg); got != bucket {
			t.Errorf("profileBucket(%s) = %s, want %s", pkg, got, bucket)
		}
	}
}

func TestKindPercentilesGeometricMean(t *testing.T) {
	byKind := map[string][]float64{
		"fast": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"slow": {40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 400},
	}
	p50, p90, per := kindPercentiles(byKind)
	if per["fast"] != [2]float64{6, 10} || per["slow"] != [2]float64{40, 40} {
		t.Fatalf("per-kind percentiles %v", per)
	}
	if math.Abs(p50-math.Sqrt(6*40)) > 1e-9 || math.Abs(p90-math.Sqrt(10*40)) > 1e-9 {
		t.Fatalf("p50 %v p90 %v, want the geometric means %v and %v", p50, p90, math.Sqrt(240), 20.0)
	}
	// Adding more samples of one kind changes neither its percentile nor
	// the other kind's weight.
	byKind["slow"] = append(byKind["slow"], 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40)
	if q50, _, _ := kindPercentiles(byKind); math.Abs(q50-p50) > 1e-9 {
		t.Fatalf("p50 moved from %v to %v with the kinds' shares", p50, q50)
	}
}

func TestHostCPUStealShare(t *testing.T) {
	a, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 7 0")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Fatalf("parsed %+v, want total 1000 steal 35", a)
	}
	b, err := parseHostCPU("cpu  150 0 60 900 10 0 5 75 9 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.stealShareSince(a); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("steal share %v, want 40/200", got)
	}
	if got := a.stealShareSince(b); got != 0 {
		t.Fatalf("steal share against a later reading %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcCPU(t *testing.T) {
	// A command name with spaces and a parenthesis; utime 250, stime 50.
	line := "4242 (imtrans d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 7 0 1000 1700000000 6000 18446744073709551615"
	got, err := parseProcCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("CPU seconds %v, want (250+50)/100", got)
	}
	for _, bad := range []string{"", "4242 (imtransd) S 1 2 3", "4242 (imtransd) S 1 4242 4242 0 -1 4194560 900 0 0 0 x 50 0"} {
		if _, err := parseProcCPU(bad); err == nil {
			t.Errorf("parseProcCPU(%q) accepted a malformed line", bad)
		}
	}
}
