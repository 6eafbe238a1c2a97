package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program. Start and End are
// nanoseconds since the run began; Parent is the enclosing span (0 at the
// top); Req groups the spans of one request or sweep point.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	t     *tracer
	id    int64
	start time.Time
	s     Span
}

// begin opens a span named name under parent (0 for none) for request req.
func (t *tracer) begin(name string, parent, req int64) *span {
	if t == nil {
		return &span{start: time.Now()}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	return &span{t: t, id: id, start: now, s: Span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(now.Sub(t.t0))}}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.t == nil {
		return d
	}
	s.s.End = int64(now.Sub(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.s)
	s.t.mu.Unlock()
	return d
}

// record adds an already-timed span (for calls timed on another goroutine
// or from a child process's observed start and end).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// SpanSummary is the per-name roll-up written beside the spans: how many
// spans, their total duration, and their self time — duration minus the
// part of it their child spans cover.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// summarize rolls spans up by name. Self time subtracts the union of the
// children's intervals, clipped to the parent, so children that overlap
// each other (parallel work) are not subtracted twice.
func summarize(spans []Span) []SpanSummary {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*SpanSummary)
	for _, s := range spans {
		covered := coveredNs(s, kids[s.ID])
		sum := by[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]SpanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs returns how much of parent's interval the union of kids covers.
func coveredNs(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			covered += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return covered + curE - curS
}

// write saves the spans and their summary as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.Marshal(struct {
		Summary []SpanSummary `json:"summary"`
		Spans   []Span        `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
