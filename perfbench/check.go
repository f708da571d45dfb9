package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"imtrans"
)

// checkReproduce requires reproduce's output to equal the golden file
// byte for byte, and names the first differing line when it does not.
func checkReproduce(out, golden []byte) error {
	if bytes.Equal(out, golden) {
		return nil
	}
	ol, gl := bytes.Split(out, []byte("\n")), bytes.Split(golden, []byte("\n"))
	for i := 0; i < len(ol) && i < len(gl); i++ {
		if !bytes.Equal(ol[i], gl[i]) {
			return fmt.Errorf("reproduce output differs from the golden file at line %d: got %q, want %q", i+1, ol[i], gl[i])
		}
	}
	return fmt.Errorf("reproduce output has %d lines, the golden file %d", len(ol), len(gl))
}

// grid is the part of a measure, compare or job-result body that must
// be bit-identical to the in-process facades: every measured value, the
// completion mask and the rankings. Counters and labels are left out.
type grid struct {
	Benchmarks   []string                      `json:"benchmarks"`
	Measurements [][]imtrans.Measurement       `json:"measurements,omitempty"`
	Results      [][]imtrans.SchemeMeasurement `json:"results,omitempty"`
	Compare      [][]imtrans.SchemeMeasurement `json:"compare,omitempty"`
	Done         [][]bool                      `json:"done"`
	Rankings     [][]int                       `json:"rankings,omitempty"`
	Errors       []string                      `json:"errors,omitempty"`
}

// canonical re-encodes the grid's values in one fixed shape, with
// compare-job results moved to where /v1/compare puts them.
func (g *grid) canonical() ([]byte, error) {
	c := *g
	if c.Compare != nil {
		c.Results, c.Compare = c.Compare, nil
	}
	c.Errors = nil
	return json.Marshal(c)
}

// checkGrid parses a 200 response (or job result) and requires every
// cell done, no cell error, and the grid shape the body asked for.
func checkGrid(b *Body, resp []byte) (*grid, error) {
	var g grid
	if err := json.Unmarshal(resp, &g); err != nil {
		return nil, fmt.Errorf("decode %s response: %w", b.Kind, err)
	}
	if len(g.Errors) > 0 {
		return nil, fmt.Errorf("%s: %d cell errors, first: %s", b.Kind, len(g.Errors), g.Errors[0])
	}
	cells := 0
	for _, row := range g.Done {
		for _, ok := range row {
			if !ok {
				return nil, fmt.Errorf("%s: a cell is not done", b.Kind)
			}
			cells++
		}
	}
	if cells != b.Cells {
		return nil, fmt.Errorf("%s: %d cells done, the body asked for %d", b.Kind, cells, b.Cells)
	}
	return &g, nil
}

// checkSample is the per-request check every response gets: HTTP 200
// (202 or 200 for a job submission) and, for grids, every cell done
// without error.
func checkSample(s *sample) error {
	if s.Err != nil {
		return s.Err
	}
	if s.Body.Kind == "job" {
		if s.Status != http.StatusAccepted && s.Status != http.StatusOK {
			return fmt.Errorf("job submit: HTTP %d: %s", s.Status, truncate(s.Resp))
		}
		return nil
	}
	if s.Status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", s.Body.Kind, s.Status, truncate(s.Resp))
	}
	_, err := checkGrid(s.Body, s.Resp)
	return err
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// inProcess computes the body's grid with the in-process facades the
// daemon wraps: SweepMeasureCtx for measure bodies and sweep jobs,
// CompareMeasureCtx for compare bodies and compare jobs.
func inProcess(ctx context.Context, b *Body, par int) (*grid, error) {
	var refs []benchRef
	var cfgs []configReq
	var schemes []schemeReq
	switch {
	case b.measure != nil:
		refs, cfgs = b.measure.Benchmarks, b.measure.Configs
	case b.compare != nil:
		refs, schemes = b.compare.Benchmarks, b.compare.Schemes
	case b.job != nil && b.job.Kind == "compare":
		refs, schemes = b.job.Benchmarks, b.job.Schemes
	case b.job != nil:
		refs, cfgs = b.job.Benchmarks, b.job.Configs
	}
	benches := make([]imtrans.Benchmark, len(refs))
	names := make([]string, len(refs))
	for i, r := range refs {
		bm, err := r.benchmark()
		if err != nil {
			return nil, err
		}
		benches[i], names[i] = bm, bm.Name
	}
	opts := imtrans.SweepOptions{Parallelism: par}
	if schemes != nil {
		specs := make([]imtrans.SchemeSpec, len(schemes))
		for i, s := range schemes {
			specs[i] = s.spec()
		}
		res, err := imtrans.CompareMeasureCtx(ctx, benches, specs, opts)
		if err != nil {
			return nil, err
		}
		if err := res.Err(); err != nil {
			return nil, err
		}
		return &grid{Benchmarks: res.Benchmarks, Results: res.Results, Done: res.Done, Rankings: res.Rankings}, nil
	}
	ic := make([]imtrans.Config, max(1, len(cfgs)))
	for i, c := range cfgs {
		ic[i] = c.config()
	}
	res, err := imtrans.SweepMeasureCtx(ctx, benches, ic, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	return &grid{Benchmarks: names, Measurements: res.Measurements, Done: res.Done}, nil
}

// checkBitIdentical requires the served grid to equal the in-process
// grid for the same body, value for value.
func checkBitIdentical(ctx context.Context, b *Body, resp []byte, par int) error {
	got, err := checkGrid(b, resp)
	if err != nil {
		return err
	}
	want, err := inProcess(ctx, b, par)
	if err != nil {
		return fmt.Errorf("in-process %s: %w", b.Kind, err)
	}
	gb, err := got.canonical()
	if err != nil {
		return err
	}
	wb, err := want.canonical()
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("%s response differs from the in-process result (body %s)", b.Kind, truncate(b.Data))
	}
	return nil
}
