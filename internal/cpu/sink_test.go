package cpu

import (
	"reflect"
	"testing"
)

// rangeLog records a FetchSink's ranges.
type rangeLog struct{ from, n []int }

func (r *rangeLog) AddRange(from, n int) {
	r.from = append(r.from, from)
	r.n = append(r.n, n)
}

func (r *rangeLog) expand() []int {
	var out []int
	for i, f := range r.from {
		for k := 0; k < r.n[i]; k++ {
			out = append(out, f+k)
		}
	}
	return out
}

// TestFetchSinkMatchesOnFetch: the ranges a FetchSink receives expand to
// exactly the indices OnFetch sees, on clean runs and on runs that stop
// at an error or the instruction cap, and each range ends at a control
// transfer that left the straight line.
func TestFetchSinkMatchesOnFetch(t *testing.T) {
	cases := []struct {
		name, src string
		max       uint64
		fails     bool
	}{
		{"loop", "li $t0, 5\nloop: addiu $t0, $t0, -1\nbgtz $t0, loop" + exitSeq, 0, false},
		{"branch to next", "li $t0, 1\nbgtz $t0, next\nnext: nop\nj after\nafter: nop" + exitSeq, 0, false},
		{"call and return", "jal f\nli $v0, 10\nsyscall\nf: addiu $t0, $t0, 1\njr $ra", 0, false},
		{"self loop to cap", "nop\nself: j self", 10, true},
		{"divide by zero", "li $t0, 1\nli $t1, 0\ndiv $t0, $t1" + exitSeq, 0, true},
		{"wild jump", "li $t0, 0x20000000\njr $t0", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := start(t, tc.src)
			c.MaxInstructions = tc.max
			var want []int
			base := c.Program().Base
			c.OnFetch = func(pc, word uint32) { want = append(want, int(pc-base)/4) }
			var got rangeLog
			c.Fetches = &got
			if err := c.Run(); (err != nil) != tc.fails {
				t.Fatalf("run error = %v, want failure %v", err, tc.fails)
			}
			if !reflect.DeepEqual(got.expand(), want) {
				t.Fatalf("ranges %v/%v expand to %v, OnFetch saw %v", got.from, got.n, got.expand(), want)
			}
			for i := 1; i < len(got.from); i++ {
				end := got.from[i-1] + got.n[i-1] - 1
				if in := c.decoded[end]; !in.branch && !in.Op.IsJump() {
					t.Errorf("range %d ends at index %d, which transfers no control", i-1, end)
				}
			}
		})
	}
}

// TestFetchSinkStepDriven: a caller stepping the CPU flushes the pending
// range itself and gets the same ranges Run would deliver.
func TestFetchSinkStepDriven(t *testing.T) {
	src := "li $t0, 3\nloop: addiu $t0, $t0, -1\nbgtz $t0, loop" + exitSeq
	var viaRun rangeLog
	c := start(t, src)
	c.Fetches = &viaRun
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var viaStep rangeLog
	c = start(t, src)
	c.Fetches = &viaStep
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushFetches()
	c.FlushFetches() // idempotent
	if !reflect.DeepEqual(viaStep, viaRun) {
		t.Fatalf("Step-driven ranges %+v, Run delivered %+v", viaStep, viaRun)
	}
}

// TestDataBusMatchesOnData: the inline data-bus totals equal a per-access
// recount from the OnData hook.
func TestDataBusMatchesOnData(t *testing.T) {
	c := start(t, `
		.data
	buf:	.space 64
		.text
		la  $s0, buf
		li  $t0, 16
	loop:
		sll  $t1, $t0, 7
		xori $t1, $t1, 0x5a5a
		addu $t2, $s0, $t0
		sb   $t1, 0($t2)
		lbu  $t3, 0($t2)
		sll  $t4, $t0, 2
		addu $t4, $s0, $t4
		sw   $t1, -4($t4)
		lw   $t3, -4($t4)
		nor  $t5, $t1, $zero
		sw   $t5, -4($t4)
		addiu $t0, $t0, -1
		bgtz $t0, loop
	`+exitSeq)
	var values []uint32
	var loads, stores uint64
	c.OnData = func(addr, v uint32, store bool) {
		values = append(values, v)
		if store {
			stores++
		} else {
			loads++
		}
	}
	var d DataBus
	c.DataBus = &d
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var raw, inv uint64
	var busState uint32
	inverted := false
	for i, v := range values {
		if i == 0 {
			busState = v
			continue
		}
		raw += uint64(popcount(v ^ values[i-1]))
		h := popcount(v ^ busState)
		drive, invNow := v, false
		if 2*h > 32 {
			drive, invNow = ^v, true
		}
		inv += uint64(popcount(drive ^ busState))
		if invNow != inverted {
			inv++
		}
		busState, inverted = drive, invNow
	}
	if d.Loads != loads || d.Stores != stores || d.Transitions != raw || d.BusInvert != inv {
		t.Fatalf("DataBus = %+v, recount loads %d stores %d raw %d bus-invert %d", d, loads, stores, raw, inv)
	}
	if d.BusInvert >= d.Transitions {
		t.Fatalf("bus-invert %d saved nothing over raw %d on inverted stores", d.BusInvert, d.Transitions)
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
