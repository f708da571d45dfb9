package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is 0 for a root span; spans of
// one request or operation share a Trace id.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SpanRef names an open span; the zero value is "no span".
type SpanRef struct {
	t     *Tracer
	id    int64
	trace int64
}

// Start opens a span named name under parent (the zero SpanRef for a
// root span, which starts a new trace).
func (t *Tracer) Start(parent SpanRef, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Trace: trace, Name: name, Start: now, End: -1})
	return SpanRef{t: t, id: id, trace: trace}
}

// End closes the span.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children (parallel calls) count once; child time outside the parent's
// interval is clipped.
func SelfTimes(spans []Span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// SelfByName sums span self times by span name.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// spanCostNs measures what recording one span costs on this host: the
// per-span tracing overhead the traced run reports.
func spanCostNs() float64 {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Start(SpanRef{}, "calibrate").End()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
