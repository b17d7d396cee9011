package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans for the traced run. They are recorded from the benchmark's own
// files, around the calls into each layer; spans inside the program are
// a later change. The traced run is single-threaded, so open spans form
// a stack and a span's parent is whatever was open when it began.

// Span is one timed call into a layer.
type Span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`   // statement id; spans of one statement share it
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// child accumulates the time child spans covered, so that self time
	// is duration minus child without a second pass.
	child int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how the untraced twin of a traced replay runs.
type Tracer struct {
	t0    time.Time
	spans []Span
	open  []int
	stmt  int
	// self is the running sum of self time per span name, calls the
	// number of spans per name.
	self  map[string]int64
	calls map[string]int
}

// maxKeptSpans bounds the spans kept for the output file; the self-time
// sums cover every span regardless.
const maxKeptSpans = 50_000

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), self: map[string]int64{}, calls: map[string]int{}}
}

// NextStmt starts a new statement id.
func (t *Tracer) NextStmt() {
	if t != nil {
		t.stmt++
	}
}

// Do runs f inside a span.
func (t *Tracer) Do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.DoLate(func() string { f(); return name })
}

// DoLate runs f inside a span that f names when it returns: a read is a
// cache hit or a storage read only once it has happened.
func (t *Tracer) DoLate(f func() string) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Stmt: t.stmt, Parent: parent})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	name := f()
	end := int64(time.Since(t.t0))
	sp := &t.spans[id]
	sp.Name, sp.End = name, end
	dur := end - sp.Start
	t.self[name] += dur - sp.child
	t.calls[name]++
	t.open = t.open[:len(t.open)-1]
	if parent >= 0 {
		t.spans[parent].child += dur
	}
	if len(t.open) == 0 && len(t.spans) > maxKeptSpans {
		// Between statements: drop the spans beyond the kept prefix. The
		// indices of kept spans stay valid because only a suffix goes.
		t.spans = t.spans[:maxKeptSpans]
	}
}

// SelfMicros is the total self time recorded under a span name.
func (t *Tracer) SelfMicros(name string) float64 { return float64(t.self[name]) / 1e3 }

// Write stores the kept spans and the per-name sums as JSON.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	kept := t.spans
	if len(kept) > maxKeptSpans {
		kept = kept[:maxKeptSpans]
	}
	raw, err := json.Marshal(struct {
		SelfNS map[string]int64 `json:"self_ns_by_name"`
		Calls  map[string]int   `json:"calls_by_name"`
		Spans  []Span           `json:"spans"`
	}{t.self, t.calls, kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
