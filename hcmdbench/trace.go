package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer of the program.
// Spans of one operation share its Op number; Parent is the span that
// caused this one (0 for an operation's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer's origin
	End    float64 `json:"end_s"`
	Week   float64 `json:"week,omitempty"` // sim time at the span's start, for kernel steps
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, so traced and untraced runs share one code path.
// Progress callbacks add spans from sweep worker goroutines, hence the lock.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(op, parent int, name string, start, end time.Time, week float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(), Week: week,
	})
	return id
}

// open starts a span that close ends; its id can parent other spans.
func (t *tracer) open(op, parent int, name string, week float64) int {
	now := time.Now()
	return t.add(op, parent, name, now, now, week)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// time runs fn inside a span.
func (t *tracer) time(op, parent int, name string, week float64, fn func()) {
	start := time.Now()
	fn()
	t.add(op, parent, name, start, time.Now(), week)
}

// named returns every span with the given name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfTime(spans []span, id int) float64 {
	var parent span
	var kids [][2]float64
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
	}
	for _, s := range spans {
		if s.Parent == id && s.ID != id {
			lo, hi := math.Max(s.Start, parent.Start), math.Min(s.End, parent.End)
			if hi > lo {
				kids = append(kids, [2]float64{lo, hi})
			}
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	covered, reach := 0.0, parent.Start
	for _, k := range kids {
		lo := math.Max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return parent.dur() - covered
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs and how
// many samples lie beyond it. It does not reorder xs.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
