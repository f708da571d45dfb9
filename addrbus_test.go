package imtrans

import (
	"fmt"
	"reflect"
	"testing"

	"imtrans/internal/baseline"
	"imtrans/internal/power"
)

func TestMeasureAddressBus(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureAddressBus(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fetches == 0 || r.Binary == 0 {
		t.Fatalf("empty report: %+v", r)
	}
	// A tight loop is almost entirely sequential fetch plus one backward
	// branch per iteration: T0 must dominate.
	if r.T0 >= r.Binary {
		t.Errorf("T0 %d vs binary %d", r.T0, r.Binary)
	}
	if r.T0Percent < 50 {
		t.Errorf("T0 reduction %.1f%% too low for a loop", r.T0Percent)
	}
	if r.Gray >= r.Binary {
		t.Errorf("Gray %d vs binary %d", r.Gray, r.Binary)
	}
}

func TestBenchmarkMeasureAddressBus(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.WithScale(16, 0).MeasureAddressBus()
	if err != nil {
		t.Fatal(err)
	}
	if r.T0Percent <= 0 || r.GrayPercent <= 0 {
		t.Errorf("report = %+v", r)
	}
}

// simulateAddressBus is the re-simulating reference for MeasureAddressBus:
// a run of its own with every fetch address driven through the per-word
// baseline.AddrBus coder.
func simulateAddressBus(p *Program, setup func(Memory) error) (*AddressBusReport, error) {
	m, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	bus := baseline.NewAddrBus(32, 4)
	m.OnFetch = func(pc, word uint32) { bus.Transfer(pc) }
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: address-bus run: %w", err)
	}
	return &AddressBusReport{
		Fetches:     bus.Words(),
		Binary:      bus.Binary(),
		Gray:        bus.Gray(),
		T0:          bus.T0(),
		GrayPercent: power.Reduction(bus.Binary(), bus.Gray()),
		T0Percent:   power.Reduction(bus.Binary(), bus.T0()),
	}, nil
}

// diffProgram is one program of the capture-derived study differential
// tests; bench is nil for a bare program measured through the program
// facades instead of the Benchmark methods.
type diffProgram struct {
	name  string
	p     *Program
	setup func(Memory) error
	bench *Benchmark
}

// differentialPrograms returns every paper and extra kernel at test
// scale, plus the plain testLoop with no memory setup.
func differentialPrograms(t *testing.T) []diffProgram {
	t.Helper()
	var out []diffProgram
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffProgram{b.Name, p, b.setup, &b})
	}
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, diffProgram{"testLoop", p, nil, nil})
}

// TestAddressBusMatchesSimulate holds the capture-derived address-bus
// study equal, field for field, to a dedicated re-simulation.
func TestAddressBusMatchesSimulate(t *testing.T) {
	for _, tc := range differentialPrograms(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := simulateAddressBus(tc.p, tc.setup)
			if err != nil {
				t.Fatal(err)
			}
			var got *AddressBusReport
			if tc.bench != nil {
				got, err = tc.bench.MeasureAddressBus()
			} else {
				got, err = MeasureAddressBus(tc.p, tc.setup)
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
