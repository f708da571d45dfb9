package scheme

import (
	"math/rand"
	"reflect"
	"testing"

	"imtrans/internal/replay"
	"imtrans/internal/trace"
)

// randomOps builds a random op tree of at most depth nested repeat
// groups. Runs mix +1 spans with other deltas (negative ones included)
// at counts above one; groups repeat 1..6 times and, half the time, close
// their body with a step back to the entry index, so both zero and
// non-zero net displacement bodies occur.
func randomOps(r *rand.Rand, depth int) []replay.Op {
	n := 1 + r.Intn(4)
	ops := make([]replay.Op, 0, n+1)
	var disp int64
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(3) == 0 {
			body := randomOps(r, depth-1)
			op := replay.Op{Repeat: 1 + r.Int63n(6), Body: body}
			disp += op.Repeat * displacement(body)
			ops = append(ops, op)
			continue
		}
		d := int32(1)
		if r.Intn(2) == 0 {
			d = int32(r.Intn(9)) - 4
			if d == 0 {
				d = 3
			}
		}
		op := replay.Op{Delta: d, Count: 1 + r.Int63n(5)}
		disp += int64(op.Delta) * op.Count
		ops = append(ops, op)
	}
	if disp != 0 && r.Intn(2) == 0 {
		ops = append(ops, replay.Op{Delta: int32(-disp), Count: 1})
	}
	return ops
}

// displacement is the net index movement of one pass over ops.
func displacement(ops []replay.Op) int64 {
	var d int64
	for _, op := range ops {
		if op.Repeat > 0 {
			d += op.Repeat * displacement(op.Body)
		} else {
			d += int64(op.Delta) * op.Count
		}
	}
	return d
}

// randomTraceCapture wraps random ops in a capture whose word image
// covers every index the trace visits, with the first fetch placed so
// the lowest visited index is zero.
func randomTraceCapture(r *rand.Rand, ops []replay.Op) *replay.Capture {
	tr := &replay.Trace{N: 1, Ops: ops}
	var idx, lo, hi int64
	tr.Runs(func(delta int32, count int64) bool {
		for i := int64(0); i < count; i++ {
			idx += int64(delta)
			lo, hi = min(lo, idx), max(hi, idx)
		}
		tr.N += uint64(count)
		return true
	})
	tr.First = int32(-lo)
	words := make([]uint32, hi-lo+1+int64(r.Intn(4)))
	for i := range words {
		words[i] = r.Uint32()
		if r.Intn(4) == 0 {
			words[i] = words[r.Intn(i+1)]
		}
	}
	return &replay.Capture{Base: 0x400000, Words: words, Trace: tr}
}

// busOracle feeds every fetched word of a capture, fully expanded,
// through a trace.Bus — the per-fetch drive BaselinePerLine replaces.
func busOracle(cap *replay.Capture) *trace.Bus {
	bus := trace.NewBus(32)
	cap.Trace.Indices(func(idx int32) { bus.Transfer(cap.Words[idx]) })
	return bus
}

// TestBaselinePerLineMatchesBus holds the lane-prefix baseline walk, with
// its repeat fast-forward, equal to a per-fetch trace.Bus drive: on
// random op trees (non-+1 runs with counts above one, groups with zero
// and non-zero net displacement), on builder-compressed synthetic traces,
// and on a single-fetch trace.
func TestBaselinePerLineMatchesBus(t *testing.T) {
	check := func(t *testing.T, name string, cap *replay.Capture) {
		t.Helper()
		want := busOracle(cap)
		got := NewStream(cap).BaselinePerLine()
		if !reflect.DeepEqual(got, want.PerLine()) {
			t.Fatalf("%s: per-line baseline diverged\n got %v\nwant %v", name, got, want.PerLine())
		}
		var total uint64
		for _, n := range got {
			total += n
		}
		if total != want.Total() {
			t.Fatalf("%s: total %d, want %d", name, total, want.Total())
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		check(t, "random", randomTraceCapture(r, randomOps(r, 3)))
	}
	for seed := int64(1); seed <= 6; seed++ {
		check(t, "synthetic", synthCapture(seed, 512, 6000))
	}
	check(t, "single fetch", randomTraceCapture(r, nil))
}
