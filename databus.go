package imtrans

import (
	"fmt"

	"imtrans/internal/power"
)

// DataBusReport measures the data-memory value bus of one run — the bus
// the paper's technique deliberately does *not* target, because the values
// travelling there depend on program input and cannot be statically
// re-encoded. General-purpose Bus-Invert still applies, so the report
// includes it as the appropriate coding for that bus, completing the
// system picture: application-specific transformations for the
// instruction bus, generic codes for data and address buses.
type DataBusReport struct {
	Accesses uint64 // loads + stores observed
	Loads    uint64
	Stores   uint64

	Transitions      uint64  // raw 32-bit value-bus transitions
	BusInvert        uint64  // bus-invert transitions (incl. invert line)
	BusInvertPercent float64 // reduction vs raw
}

// MeasureDataBus measures the data-memory value bus raw and under
// Bus-Invert coding. The capture's profiling run sums the bus as it goes,
// so the study reads the program's cached capture (profiling it on first
// use) and costs no simulation of its own.
func MeasureDataBus(p *Program, setup func(Memory) error) (*DataBusReport, error) {
	return measureDataBus(p, setup, "")
}

func measureDataBus(p *Program, setup func(Memory) error, salt string) (*DataBusReport, error) {
	cap, err := captureProgram(p, setup, salt)
	if err != nil {
		return nil, err
	}
	return &DataBusReport{
		Accesses:         cap.DataLoads + cap.DataStores,
		Loads:            cap.DataLoads,
		Stores:           cap.DataStores,
		Transitions:      cap.DataTransitions,
		BusInvert:        cap.DataBusInvert,
		BusInvertPercent: power.Reduction(cap.DataTransitions, cap.DataBusInvert),
	}, nil
}

// MeasureDataBus runs the data-bus study on the benchmark, sharing the
// benchmark's capture with Measure.
func (b Benchmark) MeasureDataBus() (*DataBusReport, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	r, err := measureDataBus(p, b.setup, b.captureSalt())
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return r, nil
}
