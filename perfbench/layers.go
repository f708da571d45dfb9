package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"imtrans"
)

// Per-layer probes of the traced run. Each times calls into the root
// imtrans facade (or a reproduce artifact) inside a span; the metrics
// are built from those span durations. Every traced run of every
// workload runs the same in-process probes, so each of those metrics has
// one meaning everywhere. The standalone reproduce artifacts (artifact.*)
// run on the reproduce workload only, the workload whose time they
// split, and read 0 elsewhere: they take about half a minute, and the
// serve workloads' traced runs must fit their time limit. The
// traffic-derived metrics (server.*, cas.*, capture.miss_ratio,
// jobs.job_s) come from the workload's own daemon.

// timed runs f inside a span named name under parent and returns its
// wall time in seconds.
func timed(e *runEnv, parent SpanRef, name string, f func() error) (float64, error) {
	sp := e.tr.Start(parent, name)
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	sp.End()
	return d, err
}

// probeArtifacts are the reproduce artifacts timed standalone.
var probeArtifacts = []string{"fig6", "cache", "addrbus", "sched", "ablations", "extras"}

// probeLayers runs every in-process probe, and the artifact probes when
// artifacts is set, and stores the per-layer metrics.
func probeLayers(ctx context.Context, e *runEnv, artifacts bool) error {
	root := e.tr.Start(SpanRef{}, "probe.layers")
	defer root.End()
	v := e.values
	kernels := append(imtrans.Benchmarks(), imtrans.ExtraBenchmarks()...)
	paper := imtrans.Benchmarks()

	// internal/cpu + internal/mem: bare simulation at paper scale.
	simByName := map[string]float64{}
	var simS float64
	var instr uint64
	cpuSpan := e.tr.Start(root, "probe.cpu")
	for _, b := range kernels {
		var rr *imtrans.RunResult
		d, err := timed(e, cpuSpan, "cpu.run", func() (err error) { rr, err = b.Run(); return })
		if err != nil {
			return fmt.Errorf("cpu probe %s: %w", b.Name, err)
		}
		simByName[b.Name] = d
		simS += d
		instr += rr.Instructions
	}
	cpuSpan.End()
	v["cpu.ms"] = simS * 1000
	v["cpu.mips"] = float64(instr) / simS / 1e6

	// Capture (internal/replay capture, internal/trace, internal/baseline):
	// cold Measure minus warm Measure of the default config.
	imtrans.ClearCaptureCache()
	var capS float64
	capSpan := e.tr.Start(root, "probe.capture")
	for _, b := range kernels {
		cold, err := timed(e, capSpan, "capture.cold_measure", func() error { _, err := b.Measure(imtrans.Config{}); return err })
		if err != nil {
			return fmt.Errorf("capture probe %s: %w", b.Name, err)
		}
		warm, err := timed(e, capSpan, "capture.warm_measure", func() error { _, err := b.Measure(imtrans.Config{}); return err })
		if err != nil {
			return fmt.Errorf("capture probe %s: %w", b.Name, err)
		}
		capS += cold - warm
	}
	capSpan.End()
	v["capture.ms"] = capS * 1000
	v["capture.over_sim"] = capS / simS

	// Re-simulating facades over the six paper kernels, captures warm.
	var paperSim float64
	for _, b := range paper {
		paperSim += simByName[b.Name]
	}
	resim := []struct {
		metric string
		f      func(b imtrans.Benchmark) error
	}{
		{"resim.addrbus_over_sim", func(b imtrans.Benchmark) error { _, err := b.MeasureAddressBus(); return err }},
		{"resim.icache_over_sim", func(b imtrans.Benchmark) error {
			_, err := b.MeasureWithCache(imtrans.CacheConfig{}, imtrans.Config{BlockSize: 5})
			return err
		}},
		{"resim.databus_over_sim", func(b imtrans.Benchmark) error { _, err := b.MeasureDataBus(); return err }},
		{"resim.sched_over_sim", func(b imtrans.Benchmark) error {
			p, err := b.Program()
			if err != nil {
				return err
			}
			p2, _, err := imtrans.RescheduleProgram(p)
			if err != nil {
				return err
			}
			if _, err := b.RunProgram(p2); err != nil {
				return err
			}
			_, err = b.MeasureModified(p2, imtrans.Config{BlockSize: 5})
			return err
		}},
	}
	for _, r := range resim {
		sp := e.tr.Start(root, "probe."+r.metric)
		var total float64
		for _, b := range paper {
			d, err := timed(e, sp, r.metric, func() error { return r.f(b) })
			if err != nil {
				return fmt.Errorf("%s %s: %w", r.metric, b.Name, err)
			}
			total += d
		}
		sp.End()
		v[r.metric] = total / paperSim
	}

	if err := probeGrid(ctx, e, root, kernels); err != nil {
		return err
	}

	// cmd/reproduce artifacts, each standalone at paper scale.
	bin := filepath.Join(e.bin, "reproduce")
	for _, a := range probeArtifacts {
		if !artifacts {
			v["artifact."+a+"_s"] = 0
			continue
		}
		d, err := timed(e, root, "artifact."+a, func() error { return runChild(ctx, bin, "-what", a).status })
		if err != nil {
			return fmt.Errorf("reproduce -what %s: %w", a, err)
		}
		v["artifact."+a+"_s"] = d
	}
	return nil
}

// probeGrid measures the warm, simulation-free layers on serve-grid's
// inputs: encode, replay, the scheme fleet, the grid engine and
// checkpoint journaling.
func probeGrid(ctx context.Context, e *runEnv, root SpanRef, kernels []imtrans.Benchmark) error {
	v := e.values
	g := newGridGen(e.seed)
	var mb, cb *Body
	for mb == nil || cb == nil {
		b := g.Next()
		if b.measure != nil && mb == nil {
			mb = b
		}
		if b.compare != nil && cb == nil {
			cb = b
		}
	}
	cfgs := make([]imtrans.Config, len(mb.measure.Configs))
	for i, c := range mb.measure.Configs {
		cfgs[i] = c.config()
	}

	// core.Encode and replay: warm Encode, warm Measure minus Encode, per
	// cell. One untimed pass first so every table is built.
	for _, b := range kernels {
		if _, err := b.Measure(cfgs...); err != nil {
			return err
		}
	}
	var encS, measS float64
	cells := 0
	sp := e.tr.Start(root, "probe.encode_replay")
	for _, b := range kernels {
		for _, c := range cfgs {
			d, err := timed(e, sp, "core.encode", func() error { _, err := b.Encode(c); return err })
			if err != nil {
				return err
			}
			encS += d
			d, err = timed(e, sp, "replay.measure", func() error { _, err := b.Measure(c); return err })
			if err != nil {
				return err
			}
			measS += d
			cells++
		}
	}
	sp.End()
	v["core.encode_us"] = encS / float64(cells) * 1e6
	v["replay.cell_us"] = (measS - encS) / float64(cells) * 1e6

	// Grid engine at Parallelism = nproc: one sweep and one compare.
	opts := imtrans.SweepOptions{Parallelism: e.nproc}
	var sweep *imtrans.SweepResult
	sweepS, err := timed(e, root, "grid.sweep", func() (err error) {
		sweep, err = imtrans.SweepMeasureCtx(ctx, kernels, cfgs, opts)
		if err == nil {
			err = sweep.Err()
		}
		return
	})
	if err != nil {
		return err
	}
	specs := make([]imtrans.SchemeSpec, len(cb.compare.Schemes))
	for i, s := range cb.compare.Schemes {
		specs[i] = s.spec()
	}
	var cmp *imtrans.CompareResult
	cmpS, err := timed(e, root, "grid.compare", func() (err error) {
		cmp, err = imtrans.CompareMeasureCtx(ctx, kernels, specs, opts)
		if err == nil {
			err = cmp.Err()
		}
		return
	})
	if err != nil {
		return err
	}
	hits := float64(sweep.Counters.Get("replay_memo_hits"))
	v["replay.memo_hit_ratio"] = ratio(hits, hits+float64(sweep.Counters.Get("replay_memo_blocks")))
	var busyNs float64
	for _, row := range sweep.CellNs {
		for _, ns := range row {
			busyNs += float64(ns)
		}
	}
	perScheme := make([]float64, len(specs))
	for _, row := range cmp.CellNs {
		for j, ns := range row {
			perScheme[j] += float64(ns)
			busyNs += float64(ns)
		}
	}
	for j, s := range cb.compare.Schemes {
		v[schemeCellMetric(s.Name)] = perScheme[j] / float64(len(kernels)) / 1e3
	}
	cmpCells := len(kernels) * len(specs)
	v["scheme.memo_hits_per_cell"] = float64(cmp.Counters.Get("compare_memo_hits")) / float64(cmpCells)
	totalCells := len(kernels)*len(cfgs) + cmpCells
	v["grid.busy_share"] = busyNs / 1e9 / ((sweepS + cmpS) * float64(e.nproc))
	v["grid.cells_per_s"] = float64(totalCells) / (sweepS + cmpS)

	// Checkpoint journaling (internal/checkpoint, as the job engine uses
	// it): the compare grid with a synced journal minus without, per
	// cell, median of three pairs.
	var with, without []float64
	for i := 0; i < 3; i++ {
		path := filepath.Join(e.dir, fmt.Sprintf("probe%d.ckpt", i))
		d, err := timed(e, root, "checkpoint.journaled", func() error {
			o := opts
			o.Checkpoint, o.CheckpointSync = path, true
			r, err := imtrans.CompareMeasureCtx(ctx, kernels, specs, o)
			if err == nil {
				err = r.Err()
			}
			return err
		})
		if err != nil {
			return err
		}
		with = append(with, d)
		d, err = timed(e, root, "checkpoint.plain", func() error {
			r, err := imtrans.CompareMeasureCtx(ctx, kernels, specs, opts)
			if err == nil {
				err = r.Err()
			}
			return err
		})
		if err != nil {
			return err
		}
		without = append(without, d)
	}
	v["checkpoint.cell_us"] = (median(with) - median(without)) / float64(cmpCells) * 1e6
	return nil
}

// setTrafficLayersIdle records the traffic-derived layer metrics of a
// workload that runs no daemon: it served no request, so every count
// and ratio is zero.
func setTrafficLayersIdle(e *runEnv) {
	for _, k := range []string{"server.overhead_ms", "server.resp_kb", "server.result_hit_ratio",
		"capture.miss_ratio", "cas.tier_hit_ratio", "cas.puts", "cas.mb", "jobs.job_s"} {
		e.values[k] = 0
	}
}

// profileShares reads a binary's CPU profile with `go tool pprof -top`
// and stores each package's share of self (flat) time.
func profileShares(ctx context.Context, e *runEnv, bin, profile string) error {
	if _, err := os.Stat(profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=100000",
		"-nodefraction=0", "-edgefraction=0", bin, profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	flat, err := parsePprofTop(out)
	if err != nil {
		return err
	}
	var total float64
	for _, f := range flat {
		total += f
	}
	shares := map[string]float64{}
	for pkg, f := range flat {
		shares[profileBucket(pkg)] += f
	}
	for _, p := range profilePackages {
		e.values["profile."+p+"_share"] = ratio(shares[p], total)
	}
	return nil
}

// parsePprofTop sums pprof -top's flat column by package path.
func parsePprofTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		flat[funcPackage(strings.Join(f[5:], " "))] += d
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return flat, nil
}

// parseFlat reads a pprof duration such as 1.25s, 30ms or 0.
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"mins", 60}, {"hrs", 3600}} {
		if strings.HasSuffix(s, u.suffix) {
			x, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return x * u.scale, err
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// funcPackage extracts the package path of a symbol like
// imtrans/internal/cpu.(*CPU).Run or encoding/json.Marshal.
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// profileBucket maps a package path to its profile.<name>_share bucket.
func profileBucket(pkg string) string {
	switch {
	case pkg == "imtrans":
		return "imtrans"
	case strings.HasPrefix(pkg, "imtrans/internal/"):
		name := strings.TrimPrefix(pkg, "imtrans/internal/")
		for _, p := range profilePackages {
			if name == p {
				return p
			}
		}
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" || pkg == "internal/poll":
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}
