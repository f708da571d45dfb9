package imtrans

import (
	"fmt"
	"reflect"
	"testing"

	"imtrans/internal/baseline"
	"imtrans/internal/power"
	"imtrans/internal/trace"
)

// simulateDataBus is the reference data-bus study: a dedicated run whose
// OnData hook drives a per-line bus model and a Bus-Invert coder on every
// access. MeasureDataBus reads the same totals off the capture run.
func simulateDataBus(p *Program, setup func(Memory) error) (*DataBusReport, error) {
	m, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	bus := trace.NewBus(32)
	inv := baseline.NewBusInvert(32)
	rep := &DataBusReport{}
	m.OnData = func(addr, value uint32, store bool) {
		rep.Accesses++
		if store {
			rep.Stores++
		} else {
			rep.Loads++
		}
		bus.Transfer(value)
		inv.Transfer(value)
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: data-bus run: %w", err)
	}
	rep.Transitions = bus.Total()
	rep.BusInvert = inv.Total()
	rep.BusInvertPercent = power.Reduction(rep.Transitions, rep.BusInvert)
	return rep, nil
}

// TestDataBusMatchesSimulate holds the capture-derived data-bus study
// equal, field for field, to the dedicated re-simulation.
func TestDataBusMatchesSimulate(t *testing.T) {
	for _, tc := range differentialPrograms(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := simulateDataBus(tc.p, tc.setup)
			if err != nil {
				t.Fatal(err)
			}
			var got *DataBusReport
			if tc.bench != nil {
				got, err = tc.bench.MeasureDataBus()
			} else {
				got, err = MeasureDataBus(tc.p, tc.setup)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("capture-derived report diverged\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestMeasureDataBus(t *testing.T) {
	p, err := Assemble(`
		.data
	buf:	.space 64
		.text
		la  $s0, buf
		li  $t0, 16
	loop:
		sll  $t1, $t0, 2
		addu $t2, $s0, $t1
		sw   $t1, -4($t2)
		lw   $t3, -4($t2)
		addiu $t0, $t0, -1
		bgtz $t0, loop
		li $v0, 10
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureDataBus(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Loads != 16 || r.Stores != 16 || r.Accesses != 32 {
		t.Errorf("accesses = %+v", r)
	}
	if r.Transitions == 0 {
		t.Error("no data-bus transitions recorded")
	}
	// Bus-invert never costs more than one invert-line flip per transfer.
	if r.BusInvert > r.Transitions+r.Accesses {
		t.Errorf("bus-invert %d vs raw %d", r.BusInvert, r.Transitions)
	}
}

func TestBenchmarkMeasureDataBus(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.WithScale(16, 0).MeasureDataBus()
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses == 0 || r.Loads == 0 || r.Stores == 0 {
		t.Errorf("report = %+v", r)
	}
}
