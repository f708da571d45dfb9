package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestCheckReproduceRejectsCorruptOutput(t *testing.T) {
	golden, err := os.ReadFile("../reproduce_paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReproduce(append([]byte(nil), golden...), golden); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	bad := append([]byte(nil), golden...)
	i := len(bad) / 2
	for bad[i] < '0' || bad[i] > '8' {
		i++
	}
	bad[i]++ // one digit off, somewhere in the middle
	err = checkReproduce(bad, golden)
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("corrupted output: err = %v, want a differing-line error", err)
	}
	if err := checkReproduce(golden[:len(golden)-1], golden); err == nil {
		t.Fatal("truncated output accepted")
	}
}

// smallBodies are one measure and one compare body at test scale.
func smallBodies() []*Body {
	refs := []benchRef{{Name: "mmul", N: 8, Iters: 1}, {Name: "tri", N: 12, Iters: 2}}
	return []*Body{
		newBody(classMeasure, &measureReq{Benchmarks: refs, Configs: []configReq{{}, {BlockSize: 4, Exact: true}}}),
		newBody(classCompare, &compareReq{Benchmarks: refs, Schemes: []schemeReq{{Name: "paper"}, {Name: "lwc", ExtraLines: 2}, {Name: "t0"}}}),
	}
}

// served renders the in-process grid as the daemon would serve it.
func served(t *testing.T, b *Body) []byte {
	t.Helper()
	g, err := inProcess(context.Background(), b, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckBitIdenticalRejectsFlippedMeasurement(t *testing.T) {
	ctx := context.Background()
	for _, b := range smallBodies() {
		resp := served(t, b)
		if err := checkBitIdentical(ctx, b, resp, 2); err != nil {
			t.Fatalf("%s: faithful response rejected: %v", b.Kind, err)
		}
		var g grid
		if err := json.Unmarshal(resp, &g); err != nil {
			t.Fatal(err)
		}
		if g.Measurements != nil {
			g.Measurements[1][1].Encoded++
		} else {
			g.Results[0][1].Transitions ^= 1
		}
		flipped, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBitIdentical(ctx, b, flipped, 2); err == nil {
			t.Fatalf("%s: response with one flipped measurement accepted", b.Kind)
		}
	}
}

func TestCheckGridRejectsIncompleteGrids(t *testing.T) {
	b := smallBodies()[0]
	var g grid
	if err := json.Unmarshal(served(t, b), &g); err != nil {
		t.Fatal(err)
	}
	g.Done[0][1] = false
	notDone, _ := json.Marshal(g)
	if _, err := checkGrid(b, notDone); err == nil {
		t.Error("a grid with an unfinished cell was accepted")
	}
	g.Done[0][1] = true
	g.Errors = []string{"cell failed"}
	withErr, _ := json.Marshal(g)
	if _, err := checkGrid(b, withErr); err == nil {
		t.Error("a grid reporting a cell error was accepted")
	}
	g.Errors = nil
	g.Done = g.Done[:1]
	short, _ := json.Marshal(g)
	if _, err := checkGrid(b, short); err == nil {
		t.Error("a grid with fewer cells than the body asked for was accepted")
	}
}

func TestCheckSampleStatus(t *testing.T) {
	b := smallBodies()[0]
	if err := checkSample(&sample{Body: b, Status: 429, Resp: []byte(`{"error":"busy"}`)}); err == nil {
		t.Error("a 429 response was accepted")
	}
	if err := checkSample(&sample{Body: b, Status: 200, Resp: served(t, b)}); err != nil {
		t.Errorf("a good response was rejected: %v", err)
	}
	job := newBody(classJob, &jobSpec{Benchmarks: []benchRef{{Name: "mmul", N: 8}}})
	if err := checkSample(&sample{Body: job, Status: 202, Resp: []byte(`{}`)}); err != nil {
		t.Errorf("an accepted job submission was rejected: %v", err)
	}
}
