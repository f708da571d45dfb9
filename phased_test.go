package imtrans

import (
	"reflect"
	"testing"
)

// twoPhaseSrc runs two distinct hot loops in sequence, each too large to
// share a small Transformation Table with the other.
const twoPhaseSrc = `
	li   $s0, 40          # outer repetitions
outer:
	li   $t0, 50          # ---- hot loop A ----
loopA:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	srl  $t4, $t3, 1
	or   $t5, $t4, $t1
	addiu $t0, $t0, -1
	bgtz $t0, loopA
	li   $t0, 50          # ---- hot loop B ----
loopB:
	subu $t6, $t0, $t1
	nor  $t7, $t6, $t2
	and  $t8, $t7, $t0
	addu $t9, $t8, $t6
	xor  $t1, $t9, $t7
	addiu $t0, $t0, -1
	bgtz $t0, loopB
	addiu $s0, $s0, -1
	bgtz $s0, outer
	li $v0, 10
	syscall
`

func TestMeasurePhasedTwoLoops(t *testing.T) {
	p, err := Assemble(twoPhaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Note: loops A and B are nested inside the outer loop, so the
	// outermost loop is a single phase here; shrink the view by using a
	// straight-line two-loop program instead.
	pm, err := MeasurePhased(p, nil, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pm.Phases < 1 {
		t.Fatalf("no phases: %+v", pm)
	}
	if pm.Encoded >= pm.Baseline {
		t.Errorf("no reduction: %d >= %d", pm.Encoded, pm.Baseline)
	}
}

// sequentialLoopsSrc has two top-level hot loops executed one after the
// other — the canonical case for per-hot-spot table reprogramming.
const sequentialLoopsSrc = `
	li   $t0, 4000        # ---- hot loop A ----
loopA:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	srl  $t4, $t3, 1
	or   $t5, $t4, $t1
	and  $t6, $t5, $t2
	nor  $t7, $t6, $t1
	addiu $t0, $t0, -1
	bgtz $t0, loopA
	li   $t0, 4000        # ---- hot loop B ----
loopB:
	subu $t6, $t0, $t1
	nor  $t7, $t6, $t2
	and  $t8, $t7, $t0
	addu $t9, $t8, $t6
	xor  $t1, $t9, $t7
	sll  $t2, $t1, 3
	srl  $t3, $t2, 2
	addiu $t0, $t0, -1
	bgtz $t0, loopB
	li $v0, 10
	syscall
`

func TestMeasurePhasedBeatsSingleUnderTinyTT(t *testing.T) {
	p, err := Assemble(sequentialLoopsSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Each 9-instruction loop body needs 2 entries at k=5; a 2-entry TT
	// can hold only one loop at a time. Phased reprogramming covers both.
	cfg := Config{BlockSize: 5, TTEntries: 2}
	pm, err := MeasurePhased(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Phases != 2 {
		t.Fatalf("phases = %d, want 2", pm.Phases)
	}
	if pm.Percent <= pm.SinglePercent {
		t.Errorf("phased %.2f%% did not beat single deployment %.2f%%",
			pm.Percent, pm.SinglePercent)
	}
	// The two loops run back to back, so exactly one runtime switch (plus
	// the initial load).
	if pm.Switches != 1 {
		t.Errorf("switches = %d, want 1", pm.Switches)
	}
	if pm.UploadWords == 0 {
		t.Error("no upload cost recorded")
	}
	if pm.TTEntriesMax > 2 {
		t.Errorf("phase exceeded TT budget: %d", pm.TTEntriesMax)
	}
}

func TestMeasurePhasedNoLoops(t *testing.T) {
	p, err := Assemble("nop\nnop\nli $v0, 10\nsyscall")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasurePhased(p, nil, Config{}); err == nil {
		t.Error("loop-free program accepted")
	}
}

// phasedFirmwareSrc is cmd/reproduce's phased firmware: two sequential
// hot loops at paper-scale trip counts, each needing the whole of a
// 2-entry Transformation Table.
const phasedFirmwareSrc = `
	li   $t0, 60000
loopA:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	srl  $t4, $t3, 1
	or   $t5, $t4, $t1
	and  $t6, $t5, $t2
	nor  $t7, $t6, $t1
	addiu $t0, $t0, -1
	bgtz $t0, loopA
	li   $t0, 60000
loopB:
	subu $t6, $t0, $t1
	nor  $t7, $t6, $t2
	and  $t8, $t7, $t0
	addu $t9, $t8, $t6
	xor  $t1, $t9, $t7
	sll  $t2, $t1, 3
	srl  $t3, $t2, 2
	addiu $t0, $t0, -1
	bgtz $t0, loopB
	li $v0, 10
	syscall
`

// TestPhasedMatchesSimulate holds MeasurePhased, which walks one captured
// fetch trace, to the four-run simulate oracle: every field equal, or
// both failing with the same error. It covers the two loop firmwares and
// the nine kernels under a tight and the default table budget.
func TestPhasedMatchesSimulate(t *testing.T) {
	type input struct {
		name  string
		p     *Program
		setup func(Memory) error
	}
	var inputs []input
	for _, src := range []struct{ name, src string }{
		{"twoPhase", twoPhaseSrc}, {"firmware", phasedFirmwareSrc},
	} {
		p, err := Assemble(src.src)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{src.name, p, nil})
	}
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{b.Name, p, b.setup})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for _, c := range []Config{{BlockSize: 5, TTEntries: 2}, {}} {
				want, werr := simulatePhased(in.p, in.setup, c)
				got, gerr := MeasurePhased(in.p, in.setup, c)
				if werr != nil || gerr != nil {
					if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
						t.Errorf("%v: MeasurePhased err %v, simulate oracle err %v", c, gerr, werr)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: MeasurePhased differs from the simulate oracle\n got %+v\nwant %+v", c, got, want)
				}
			}
		})
	}
}
