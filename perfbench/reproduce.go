package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// reproduceHead are the simulation-free artifacts `-what all` prints
// first. Running them is the reproduce workload's set-up: it starts the
// binary, pays its fixed start-up cost and checks the output against the
// head of the golden file.
var reproduceHead = []string{"fig2", "fig3", "fig4", "claims", "history"}

// reproduceLimitS is the latency limit of one paper reproduction.
const reproduceLimitS = 120

// reproduceSetups is how many times set-up runs; setup_s is the median.
// Each run is a few short processes, so a single one is at the mercy of
// the host's scheduling.
const reproduceSetups = 9

// child is one finished child process.
type child struct {
	out    []byte
	wall   time.Duration
	rssMB  float64
	userS  float64
	sysS   float64
	status error
}

// runChild runs bin with args, capturing standard output.
func runChild(ctx context.Context, bin string, args ...string) child {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	start := time.Now()
	err := cmd.Run()
	c := child{out: out.Bytes(), wall: time.Since(start), status: err}
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024
			c.userS = time.Duration(ru.Utime.Nano()).Seconds()
			c.sysS = time.Duration(ru.Stime.Nano()).Seconds()
		}
	}
	return c
}

// runReproduce is the reproduce workload: whole paper reproductions
// (`reproduce -what all` at paper scale, a fresh process each, so every
// capture is cold), one after another until the measured seconds are
// spent, each checked byte for byte against reproduce_paper_scale.txt.
func runReproduce(ctx context.Context, e *runEnv) error {
	golden, err := os.ReadFile(filepath.Join(e.root, "reproduce_paper_scale.txt"))
	if err != nil {
		return err
	}
	bin := filepath.Join(e.bin, "reproduce")

	var setups []float64
	for i := 0; i < reproduceSetups; i++ {
		start := time.Now()
		var head bytes.Buffer
		for _, a := range reproduceHead {
			c := runChild(ctx, bin, "-what", a)
			if c.status != nil {
				return fmt.Errorf("set-up: reproduce -what %s: %w", a, c.status)
			}
			head.Write(c.out)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !bytes.HasPrefix(golden, head.Bytes()) {
			return errors.New("set-up: the simulation-free artifacts differ from the head of reproduce_paper_scale.txt")
		}
	}

	profile := filepath.Join(e.dir, "reproduce.prof")
	var walls, cpus []float64
	var total, peak float64
	ok := 0
	cpu0 := readHostCPU()
	phase := e.tr.Start(SpanRef{}, "workload.reproduce")
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < e.seconds; i++ {
		args := []string{"-what", "all"}
		if e.trace && i == 0 {
			args = append(args, "-cpuprofile", profile)
		}
		sp := e.tr.Start(phase, "reproduce.all")
		c := runChild(ctx, bin, args...)
		sp.End()
		e.attempted++
		total += c.wall.Seconds()
		peak = max(peak, c.rssMB)
		err := c.status
		if err == nil {
			err = checkReproduce(c.out, golden)
		}
		if err != nil {
			e.fail(fmt.Errorf("reproduction %d: %w", i, err))
			walls = append(walls, 10*reproduceLimitS)
			continue
		}
		walls = append(walls, c.wall.Seconds())
		if c.wall.Seconds() <= reproduceLimitS {
			ok++
		}
		cpus = append(cpus, c.userS+c.sysS)
	}
	phase.End()
	phaseWall := time.Since(start)
	e.props["host_steal_share"] = readHostCPU().stealShareSince(cpu0)

	v := map[string]float64{
		"setup_s":      median(setups),
		"p50_ms":       median(walls) * 1000,
		"p90_ms":       quantile(walls, 0.9) * 1000,
		"capacity_rps": ratio(float64(ok), total),
		"peak_rss_mb":  peak,
		// The CPU time of the reproductions that passed their check.
		"cpu_ms_per_op": median(cpus) * 1000,
	}
	e.props["op_cpu_s"] = cpus
	e.props["operations"] = len(walls)
	e.props["setup_runs_s"] = setups
	e.props["latency_limit_s"] = reproduceLimitS
	e.props["loop"] = "closed, one reproduction at a time (the program itself uses every CPU)"
	setE2E(e, v, phaseWall)
	if !e.trace {
		return nil
	}
	setTrafficLayersIdle(e)
	if err := profileShares(ctx, e, filepath.Join(e.bin, "reproduce"), profile); err != nil {
		return err
	}
	return probeLayers(ctx, e, true)
}

// setE2E stores the end-to-end values: as the metrics themselves on an
// untraced run, under traced.* on a traced one, with the share of the
// measured phase's wall time that recording its spans cost.
func setE2E(e *runEnv, v map[string]float64, phaseWall time.Duration) {
	for k, x := range v {
		if e.trace {
			e.values["traced."+k] = x
		} else {
			e.values[k] = x
		}
	}
	if e.trace {
		n := len(e.tr.Spans())
		e.values["trace.span_cost_pct"] = 100 * float64(n) * spanCostNs() / float64(phaseWall.Nanoseconds())
		e.props["trace_spans_in_workload"] = n
	}
}
