package imtrans

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestRescheduleProgramFacade(t *testing.T) {
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	b = b.WithScale(16, 0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, st, err := RescheduleProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 || st.After > st.Before {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReductionPercent() < 0 {
		t.Errorf("negative reduction: %+v", st)
	}
	if len(p2.Text) != len(p.Text) {
		t.Fatal("text length changed")
	}
	// Golden check on the rescheduled program.
	if _, err := b.RunProgram(p2); err != nil {
		t.Fatal(err)
	}
	// Measurement on the modified program works end to end.
	ms, err := b.MeasureModified(p2, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Encoded > ms[0].Baseline {
		t.Errorf("encoding regressed on rescheduled program: %+v", ms[0])
	}
	if _, _, err := RescheduleProgram(nil); err == nil {
		t.Error("nil program accepted")
	}
}

// TestMeasureModifiedGoldenCheck pins the golden check MeasureModified
// runs inside its capture: a variant that computes the wrong result (the
// mmul kernel with the immediate of its A-pointer stride flipped) fails
// with a golden-check error, and checked captures never share a cache key
// with unchecked captures of the same program — in either order.
func TestMeasureModifiedGoldenCheck(t *testing.T) {
	ClearCaptureCache()
	b := testScale(mustBench(t, "mmul"))
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	stride, err := Assemble("addiu $t3, $t3, 4\n")
	if err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Text = append([]uint32(nil), p.Text...)
	flipped := false
	for i, w := range bad.Text {
		if w == stride.Text[0] {
			bad.Text[i] ^= 1 << 3 // stride 4 -> 12
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("mmul has no A-pointer stride instruction to flip")
	}

	_, err = b.MeasureModified(&bad, Config{BlockSize: 5})
	if err == nil || !strings.Contains(err.Error(), "golden check") {
		t.Fatalf("broken variant: err = %v, want a golden-check failure", err)
	}
	// The failed checked capture is cached, but only under its own key:
	// an unchecked capture of the same variant still runs and measures.
	if _, err := replayMeasureCtx(context.Background(), &bad, b.setup, b.captureSalt(), Config{BlockSize: 5}); err != nil {
		t.Fatalf("unchecked capture of the variant inherited the check failure: %v", err)
	}
	if _, misses := CaptureCacheStats(); misses != 2 {
		t.Errorf("checked and unchecked captures of one variant: %d profiling runs, want 2", misses)
	}

	// The other order, on the unmodified program: a cached unchecked
	// capture must not stand in for a checked one.
	ClearCaptureCache()
	plain, err := b.Measure(Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := b.MeasureModified(p, Config{BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := CaptureCacheStats(); misses != 2 {
		t.Errorf("checked capture reused the unchecked one: %d profiling runs, want 2", misses)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("checked capture measured differently\nplain   %+v\nchecked %+v", plain, checked)
	}
	if _, err := b.MeasureModified(p, Config{BlockSize: 6}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := CaptureCacheStats(); hits != 1 || misses != 2 {
		t.Errorf("repeat checked measurement: %d hits, %d misses; want 1, 2", hits, misses)
	}
}
