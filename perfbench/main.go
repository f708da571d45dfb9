// Command perfbench is the repository's end-to-end benchmark. It drives
// the real programs from outside — the reproduce binary, and the
// imtransd daemon over HTTP — checks every output, and prints each
// end-to-end metric by name with its unit. With -trace 1 it runs the
// workload untraced and then again with spans around every call into the
// system, probes each layer through the root imtrans facade, and prints
// the per-layer metrics and the tracing overhead. See README.md.
//
// Usage (from the repository root, after building reproduce and imtransd
// with -pgo=default.pgo into -bin; perfbench/run.py does both):
//
//	perfbench -workload reproduce|serve-grid|serve-mixed|all -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runEnv is the state of one workload run.
type runEnv struct {
	root    string // checkout root: golden files live here
	bin     string // directory holding reproduce and imtransd
	dir     string // this run's scratch directory
	seed    int64
	seconds float64
	trace   bool
	tr      *Tracer // nil unless tracing
	nproc   int

	values    map[string]float64 // every metric measured
	props     map[string]any     // workload properties recorded beside them
	attempted int
	failed    int
	failures  []string // the first few failure messages
}

// fail counts one failed operation.
func (e *runEnv) fail(err error) {
	e.failed++
	if len(e.failures) < 10 {
		e.failures = append(e.failures, err.Error())
	}
}

type workloadFunc func(ctx context.Context, e *runEnv) error

var workloads = map[string]workloadFunc{
	"reproduce":   runReproduce,
	"serve-grid":  runServeGrid,
	"serve-mixed": runServeMixed,
}

var workloadOrder = []string{"reproduce", "serve-grid", "serve-mixed"}

func main() {
	workload := flag.String("workload", "", "reproduce | serve-grid | serve-mixed | all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := flag.String("root", ".", "repository checkout holding reproduce_paper_scale.txt")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the reproduce and imtransd binaries")
	out := flag.String("out", ".bench_build/perfbench", "directory for run reports, traces and daemon stores")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		res, err := runOne(n, *seed, *seconds, *trace == 1, *root, *bin, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			final = *res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadBudget is the time one workload may take, traced or not;
// run.py allows the harness a few seconds more per workload.
const workloadBudget = 170 * time.Second

// runPhase runs one workload once, traced or not, in a run directory of
// its own under out.
func runPhase(ctx context.Context, name, tag string, seed int64, seconds float64, trace bool, root, bin, out string) (*runEnv, error) {
	// The run directory (daemon logs, stores, profiles) is kept, not
	// deleted: freeing serve-mixed's stores made the file system discard
	// their blocks, and the host's disk slowed run after run.
	dir, err := os.MkdirTemp(mustMkdir(out), tag+"-")
	if err != nil {
		return nil, err
	}
	e := &runEnv{
		root: root, bin: bin, dir: dir, seed: seed, seconds: seconds, trace: trace,
		nproc:  runtime.NumCPU(),
		values: map[string]float64{},
		props:  map[string]any{},
	}
	if trace {
		e.tr = newTracer()
	}
	if err := workloads[name](ctx, e); err != nil {
		return nil, err
	}
	if e.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return e, nil
}

// runOne runs one workload, prints its human-readable report and writes
// its JSON report (and spans, when traced) under out. A traced run first
// runs the workload untraced with the same seed, so the tracing overhead
// is the traced end-to-end value minus the untraced one.
func runOne(name string, seed int64, seconds float64, trace bool, root, bin, out string) (*result, error) {
	for _, f := range []string{"reproduce", "imtransd"} {
		if _, err := os.Stat(filepath.Join(bin, f)); err != nil {
			return nil, fmt.Errorf("binary missing (build with perfbench/run.py): %w", err)
		}
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, map[bool]int{false: 0, true: 1}[trace])
	ctx, cancel := context.WithTimeout(context.Background(), workloadBudget)
	defer cancel()
	start := time.Now()
	var base *runEnv
	if trace {
		var err error
		if base, err = runPhase(ctx, name, tag+"-untraced", seed, seconds, false, root, bin, out); err != nil {
			return nil, fmt.Errorf("untraced phase: %w", err)
		}
	}
	e, err := runPhase(ctx, name, tag, seed, seconds, trace, root, bin, out)
	if err != nil {
		return nil, err
	}
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
		for _, d := range unboundMetrics {
			e.values[d.Name] = base.values[d.Name]
		}
		for _, d := range untracedMetrics() {
			e.values[overheadMetric(d.Name)] = e.values["traced."+d.Name] - base.values[d.Name]
		}
		e.attempted += base.attempted
		e.failed += base.failed
		e.failures = append(e.failures, base.failures...)
	}
	metrics, err := collect(defs, e.values)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}

	meta := runMeta(e)
	meta["run_s"] = time.Since(start).Seconds()
	printReport(name, e, res, meta)
	report := map[string]any{
		"workload": name, "meta": meta, "properties": e.props, "result": res,
		"failures": e.failures, "all_values": e.values,
	}
	if trace {
		report["untraced"] = map[string]any{"properties": base.props, "values": base.values}
		spans := e.tr.Spans()
		report["spans"] = spans
		self := SelfByName(spans)
		ms := map[string]float64{}
		for k, v := range self {
			ms[k] = float64(v) / 1e6
		}
		report["span_self_ms"] = ms
	}
	data, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return nil, err
	}
	reportPath := filepath.Join(out, tag+".json")
	if err := os.WriteFile(reportPath, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("report: %s\n", reportPath)
	return res, nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// hostCPU holds the machine-wide CPU time counters of /proc/stat, in
// clock ticks.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads /proc/stat; zero counters where it is unavailable.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	c, _ := parseHostCPU(line)
	return c
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal make up the total (guest
// time is already inside user).
func parseHostCPU(line string) (hostCPU, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("not a /proc/stat cpu line: %q", line)
	}
	var c hostCPU
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c, nil
}

// stealShareSince is the share of this machine's CPU time the hypervisor
// gave to other machines since an earlier reading. On a shared host it
// explains runs that are slow for reasons outside the program.
func (c hostCPU) stealShareSince(earlier hostCPU) float64 {
	if c.total < earlier.total || c.steal < earlier.steal {
		return 0
	}
	return ratio(float64(c.steal-earlier.steal), float64(c.total-earlier.total))
}

// runMeta records what the numbers were measured on.
func runMeta(e *runEnv) map[string]any {
	build := "unknown"
	if out, err := exec.Command(filepath.Join(e.bin, "imtransd"), "-version").CombinedOutput(); err == nil {
		build = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"build":      build,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     e.trace,
	}
}

func printReport(name string, e *runEnv, res *result, meta map[string]any) {
	fmt.Printf("== %s (seed %d, %gs, traced=%v) ==\n", name, e.seed, e.seconds, e.trace)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("meta %-12s %v\n", k, meta[k])
	}
	keys = keys[:0]
	for k := range e.props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("prop %-28s %v\n", k, e.props[k])
	}
	defs := e2eMetrics
	if e.trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		fmt.Printf("metric %-28s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if !e.trace {
		for _, d := range unboundMetrics {
			fmt.Printf("metric %-28s %14.4f %s (reported, no bound)\n", d.Name, e.values[d.Name], d.Unit)
		}
	}
	fmt.Printf("operations %d attempted, %d failed (failed share %.4f)\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, f := range e.failures {
		fmt.Printf("failure: %s\n", f)
	}
}
