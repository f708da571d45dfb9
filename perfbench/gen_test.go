package main

import (
	"bytes"
	"testing"
)

func TestGridGenDeterministicPerSeed(t *testing.T) {
	a, b, c := newGridGen(7), newGridGen(7), newGridGen(8)
	differs := false
	for i := 0; i < 50; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x.Path != y.Path || !bytes.Equal(x.Data, y.Data) {
			t.Fatalf("body %d differs between two generators with seed 7", i)
		}
		if !bytes.Equal(x.Data, z.Data) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated the same 50 bodies")
	}
}

func TestGridGenBodiesDistinctAndShaped(t *testing.T) {
	g := newGridGen(3)
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, w := range warmGridBodies() {
		seen[w.Path+string(w.Data)] = true
	}
	for i := 0; i < 500; i++ {
		b := g.Next()
		if seen[b.Path+string(b.Data)] {
			t.Fatalf("body %d repeats an earlier or set-up body", i)
		}
		seen[b.Path+string(b.Data)] = true
		kinds[b.Kind]++
		if i%2 == 1 && kinds["measure"] != kinds["compare"] {
			t.Fatalf("after %d bodies: %d measure, %d compare; every pair must hold one of each", i+1, kinds["measure"], kinds["compare"])
		}
		switch b.Kind {
		case "measure":
			if b.Cells < 9*6 || b.Cells > 9*8 {
				t.Fatalf("measure body %d has %d cells, want 54-72", i, b.Cells)
			}
		case "compare":
			if b.Cells != 9*7 {
				t.Fatalf("compare body %d has %d cells, want 63", i, b.Cells)
			}
		default:
			t.Fatalf("serve-grid generated a %s body", b.Kind)
		}
	}
}

func TestMixedGenDeterministicPerSeed(t *testing.T) {
	a, b := newMixedGen(5), newMixedGen(5)
	wa, wb := a.Warm(), b.Warm()
	if len(wa) != len(wb) {
		t.Fatal("set-up bodies differ in number")
	}
	for i := range wa {
		if !bytes.Equal(wa[i].Data, wb[i].Data) {
			t.Fatalf("set-up body %d differs", i)
		}
	}
	for i := 0; i < 400; i++ {
		if i == 300 {
			a.jobs, b.jobs = false, false
		}
		x, y := a.Next(), b.Next()
		if x.Class != y.Class || x.Path != y.Path || !bytes.Equal(x.Data, y.Data) {
			t.Fatalf("body %d differs between two generators with seed 5", i)
		}
		if i >= 300 && x.Kind == "job" {
			t.Fatalf("body %d is a job after jobs were turned off", i)
		}
	}
}

func TestMixedGenClassesAndWorkingSet(t *testing.T) {
	g := newMixedGen(9)
	counts := map[string]int{}
	sent := map[string]bool{}
	for _, w := range g.Warm() {
		sent[w.Path+string(w.Data)] = true
	}
	const n = 2000
	for i := 0; i < n; i++ {
		b := g.Next()
		counts[b.Class]++
		key := b.Path + string(b.Data)
		if b.Class == classRepeat {
			if !sent[key] {
				t.Fatalf("repeat body %d was never sent before", i)
			}
		} else if sent[key] {
			t.Fatalf("%s body %d repeats an earlier body", b.Class, i)
		}
		sent[key] = true
	}
	for _, c := range mixedClasses {
		if counts[c] != n/len(mixedClasses) {
			t.Errorf("class %s has %d of %d bodies, want an equal share", c, counts[c], n)
		}
	}
	if len(g.captured) <= captureCache {
		t.Errorf("only %d distinct pairs captured after %d bodies; the working set must pass the %d-entry capture cache", len(g.captured), n, captureCache)
	}
}

// TestPairScalesRun simulates every reduced (kernel, scale) pair once,
// so serve-mixed never draws an input the kernels reject.
func TestPairScalesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every pair")
	}
	seen := map[benchRef]bool{}
	var pairs []benchRef
	for _, st := range pairStrata() {
		pairs = append(pairs, st...)
	}
	if len(pairs) != 3108 {
		t.Errorf("%d pairs, want 3108", len(pairs))
	}
	for _, r := range pairs {
		if seen[r] {
			t.Fatalf("pair %+v listed twice", r)
		}
		seen[r] = true
		b, err := r.benchmark()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
	}
}
