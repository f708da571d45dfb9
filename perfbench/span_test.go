package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children (parallel calls) cover [10, 50] once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		// A child running past its parent is clipped to [90, 100].
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild is charged to its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	byName := SelfByName(spans)
	if byName["a"] != 40 || byName["root"] != 50 {
		t.Errorf("self by name = %v, want a=40 root=50", byName)
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("no children covered %d", got)
	}
	if got := covered(0, 100, [][2]int64{{60, 70}, {10, 20}, {15, 18}}); got != 20 {
		t.Errorf("covered %d, want 20", got)
	}
	if got := covered(50, 60, [][2]int64{{0, 10}, {70, 80}}); got != 0 {
		t.Errorf("children outside the parent covered %d", got)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.Start(SpanRef{}, "root")
	child := tr.Start(root, "child")
	child.End()
	open := tr.Start(root, "unfinished")
	_ = open
	root.End()
	other := tr.Start(SpanRef{}, "other")
	other.End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3 (an unfinished span is left out)", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Trace != spans[0].Trace {
		t.Errorf("child span %+v is not under root %+v", spans[1], spans[0])
	}
	if spans[2].Trace == spans[0].Trace || spans[2].Parent != 0 {
		t.Errorf("second root span %+v shares the first trace", spans[2])
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(SpanRef{}, "x")
	tr.Start(sp, "y").End()
	sp.End()
	if tr.Spans() != nil {
		t.Fatal("a nil tracer returned spans")
	}
}
