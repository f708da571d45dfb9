package imtrans

import (
	"fmt"

	"imtrans/internal/power"
	"imtrans/internal/scheme"
)

// AddressBusReport measures the instruction-*address* bus of one program
// run under the related-work codings the paper discusses (Section 2):
// plain binary, Gray code, and the T0 scheme with its redundant INC line.
// Address streams are dominated by sequentiality, so generic codes excel
// there; the data bus — the paper's target — has no such structure, which
// is why it needs the application-specific transformations instead.
type AddressBusReport struct {
	Fetches uint64
	Binary  uint64 // plain binary address-bus transitions
	Gray    uint64 // Gray-coded (word-index) transitions
	T0      uint64 // T0 transitions including the INC line

	GrayPercent float64 // reduction vs binary
	T0Percent   float64
}

// MeasureAddressBus measures a program's fetch address stream under all
// three address codings. The addresses are read off the program's cached
// fetch-trace capture (profiling it on first use) through the registered
// gray and t0 batch kernels, so the study costs no simulation of its own.
func MeasureAddressBus(p *Program, setup func(Memory) error) (*AddressBusReport, error) {
	return measureAddressBus(p, setup, "")
}

func measureAddressBus(p *Program, setup func(Memory) error, salt string) (*AddressBusReport, error) {
	cap, err := captureProgram(p, setup, salt)
	if err != nil {
		return nil, err
	}
	w := &scheme.Workload{Cap: cap, Stream: scheme.NewStream(cap)}
	gray, err := measureScheme(w, "gray")
	if err != nil {
		return nil, err
	}
	t0, err := measureScheme(w, "t0")
	if err != nil {
		return nil, err
	}
	// Both kernels report the binary address bus as their baseline.
	binary := gray.Baseline
	return &AddressBusReport{
		Fetches:     cap.Trace.N,
		Binary:      binary,
		Gray:        gray.Transitions,
		T0:          t0.Transitions,
		GrayPercent: power.Reduction(binary, gray.Transitions),
		T0Percent:   power.Reduction(binary, t0.Transitions),
	}, nil
}

// MeasureAddressBus runs the address-bus study on the benchmark, sharing
// the benchmark's capture with Measure.
func (b Benchmark) MeasureAddressBus() (*AddressBusReport, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	r, err := measureAddressBus(p, b.setup, b.captureSalt())
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return r, nil
}
