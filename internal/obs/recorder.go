package obs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The flight recorder keeps query tracing always on: every statement —
// not just EXPLAIN ANALYZE — runs under a sampled trace whose finished
// root span lands in a bounded ring, and any statement slower than a
// configurable threshold is captured unconditionally (slow-query log).
//
// Cost contract: a disabled (nil) recorder costs one nil check per
// statement. With the recorder enabled, an *unsampled* statement costs
// one atomic sequence increment plus two clock reads (for the slow
// threshold); only sampled statements allocate a span tree. The rings
// are fixed-capacity and hold at most RecentCap+SlowCap records, so
// memory is bounded no matter how many statements run.

// RecorderConfig configures a flight recorder. Zero values pick the
// defaults noted on each field.
type RecorderConfig struct {
	// Registry supplies the clock and the histograms span Finish feeds
	// (Default when nil).
	Registry *Registry
	// SampleEvery traces one statement in every SampleEvery; values
	// <= 1 trace every statement (the default). The first statement of
	// every run is always sampled, so sampling stays deterministic.
	SampleEvery int
	// SlowMicros promotes any statement at or above this duration into
	// the slow ring regardless of sampling; 0 disables slow capture.
	SlowMicros int64
	// RecentCap bounds the recent-trace ring (default 256).
	RecentCap int
	// SlowCap bounds the slow-query ring (default 64).
	SlowCap int
}

// TraceRecord is one finished statement in a recorder ring. Root is the
// statement's span tree when the statement was sampled, nil when an
// unsampled statement was promoted to the slow ring on latency alone.
type TraceRecord struct {
	ID          string
	Seq         uint64
	StartMicros int64
	Micros      int64
	Stage       string
	SQL         string
	Err         string
	Slow        bool
	Root        *Span
}

// traceRing is a fixed-capacity circular buffer of trace records. Push
// is a handful of word writes under a mutex; Snapshot copies out
// newest-first.
type traceRing struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int // next write position
	n    int // filled entries, <= len(buf)
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{buf: make([]TraceRecord, capacity)}
}

func (rg *traceRing) push(rec TraceRecord) {
	rg.mu.Lock()
	rg.buf[rg.next] = rec
	rg.next = (rg.next + 1) % len(rg.buf)
	if rg.n < len(rg.buf) {
		rg.n++
	}
	rg.mu.Unlock()
}

// snapshot returns the ring's records newest-first.
func (rg *traceRing) snapshot() []TraceRecord {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]TraceRecord, 0, rg.n)
	for i := 1; i <= rg.n; i++ {
		out = append(out, rg.buf[(rg.next-i+len(rg.buf))%len(rg.buf)])
	}
	return out
}

// Recorder is the statement flight recorder. A nil *Recorder is a valid
// disabled recorder: Begin returns a nil *Statement whose every method
// is a no-op.
type Recorder struct {
	reg         *Registry
	sampleEvery uint64
	slowMicros  int64
	seq         atomic.Uint64
	recent      *traceRing
	slow        *traceRing

	mSampled *Counter
	mSlow    *Counter
}

// NewRecorder builds a flight recorder from cfg.
func NewRecorder(cfg RecorderConfig) *Recorder {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	se := uint64(1)
	if cfg.SampleEvery > 1 {
		se = uint64(cfg.SampleEvery)
	}
	rc := cfg.RecentCap
	if rc <= 0 {
		rc = 256
	}
	sc := cfg.SlowCap
	if sc <= 0 {
		sc = 64
	}
	return &Recorder{
		reg:         reg,
		sampleEvery: se,
		slowMicros:  cfg.SlowMicros,
		recent:      newTraceRing(rc),
		slow:        newTraceRing(sc),
		mSampled:    reg.Counter("sebdb_trace_sampled_total"),
		mSlow:       reg.Counter("sebdb_trace_slow_total"),
	}
}

// SlowMicros returns the recorder's slow-statement threshold (0 when
// disabled or for a nil recorder).
func (r *Recorder) SlowMicros() int64 {
	if r == nil {
		return 0
	}
	return r.slowMicros
}

// traceID derives the deterministic trace ID for statement seq started
// at start microseconds (registry clock): FNV-64a over both, rendered
// as 16 hex digits. No global randomness, no wall clock — the obsclock
// discipline holds and tests with a fixed clock see fixed IDs.
func traceID(seq uint64, start int64) string {
	h := fnv.New64a()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seq)
	binary.BigEndian.PutUint64(b[8:], uint64(start))
	h.Write(b[:])
	return strconv.FormatUint(h.Sum64(), 16)
}

// Statement is one in-flight statement's handle on the recorder. A nil
// *Statement (disabled recorder, unsampled-and-no-slow-capture, or a
// statement already inside another trace) accepts every method as a
// no-op.
type Statement struct {
	rec   *Recorder
	root  *Span // nil when unsampled (slow-capture only)
	id    string
	seq   uint64
	start int64

	mu    sync.Mutex
	stage string
	sql   string
}

// Begin starts recording one statement. When the statement is sampled
// the returned context carries a root span (stage "stmt" until SetStage
// renames it) so StartSpan works all the way down the execution path;
// otherwise ctx is returned unchanged. If ctx already carries a span —
// EXPLAIN ANALYZE's inner statement — Begin declines so the statement
// is not double-traced.
func (r *Recorder) Begin(ctx context.Context, sql string) (context.Context, *Statement) {
	if r == nil || FromContext(ctx) != nil {
		return ctx, nil
	}
	seq := r.seq.Add(1)
	sampled := r.sampleEvery <= 1 || seq%r.sampleEvery == 1
	if !sampled && r.slowMicros <= 0 {
		return ctx, nil
	}
	start := r.reg.Now()
	st := &Statement{rec: r, seq: seq, start: start, sql: sql, stage: "stmt"}
	if sampled {
		r.mSampled.Inc()
		ctx, st.root = NewTrace(ctx, r.reg, "stmt")
		st.id = traceID(seq, start)
	}
	return ctx, st
}

// SetStage records the statement's kind once parsing has revealed it;
// the root span (if any) is renamed to "stmt.<kind>" so the stage
// histogram and rings bucket per statement kind.
func (st *Statement) SetStage(kind string) {
	if st == nil {
		return
	}
	name := "stmt." + kind
	st.mu.Lock()
	st.stage = name
	st.mu.Unlock()
	st.root.rename(name)
}

// Span returns the statement's root span (nil when unsampled).
func (st *Statement) Span() *Span {
	if st == nil {
		return nil
	}
	return st.root
}

// Finish closes the statement: the root span (if any) is finished and
// the record lands in the recent ring; statements at or above the slow
// threshold are promoted to the slow ring, synthesizing a span-less
// record when the statement was unsampled.
func (st *Statement) Finish(err error) {
	if st == nil {
		return
	}
	r := st.rec
	st.mu.Lock()
	rec := TraceRecord{
		ID:          st.id,
		Seq:         st.seq,
		StartMicros: st.start,
		Stage:       st.stage,
		SQL:         st.sql,
	}
	st.mu.Unlock()
	if err != nil {
		rec.Err = err.Error()
	}
	if st.root != nil {
		st.root.Finish()
		rec.Micros = st.root.DurationMicros()
		rec.Root = st.root
	} else {
		rec.Micros = r.reg.Now() - st.start
		rec.ID = traceID(st.seq, st.start)
	}
	rec.Slow = r.slowMicros > 0 && rec.Micros >= r.slowMicros
	if rec.Slow {
		r.mSlow.Inc()
		r.slow.push(rec)
	}
	if st.root != nil {
		r.recent.push(rec)
	}
}

// Recent returns the most recent sampled statements, newest first. Nil
// recorders return nil.
func (r *Recorder) Recent() []TraceRecord {
	if r == nil {
		return nil
	}
	return r.recent.snapshot()
}

// Slow returns the captured slow statements, newest first. Nil
// recorders return nil.
func (r *Recorder) Slow() []TraceRecord {
	if r == nil {
		return nil
	}
	return r.slow.snapshot()
}

// SpanJSON is the wire form of one span subtree on /debug/traces.
type SpanJSON struct {
	Stage    string           `json:"stage"`
	Micros   int64            `json:"micros"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []SpanJSON       `json:"children,omitempty"`
}

// spanToJSON converts a finished span tree to its wire form.
func spanToJSON(s *Span) SpanJSON {
	out := SpanJSON{Stage: s.Name(), Micros: s.DurationMicros()}
	if cs := s.Counters(); len(cs) > 0 {
		out.Counters = make(map[string]int64, len(cs))
		for _, c := range cs {
			out.Counters[c.Name] = c.Value
		}
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}

// traceJSON is one trace record on /debug/traces.
type traceJSON struct {
	TraceID     string    `json:"trace_id"`
	Seq         uint64    `json:"seq"`
	StartMicros int64     `json:"start_micros"`
	Micros      int64     `json:"micros"`
	Stage       string    `json:"stage"`
	SQL         string    `json:"sql,omitempty"`
	Err         string    `json:"err,omitempty"`
	Slow        bool      `json:"slow"`
	Root        *SpanJSON `json:"root,omitempty"`
}

func recordToJSON(rec TraceRecord) traceJSON {
	out := traceJSON{
		TraceID:     rec.ID,
		Seq:         rec.Seq,
		StartMicros: rec.StartMicros,
		Micros:      rec.Micros,
		Stage:       rec.Stage,
		SQL:         rec.SQL,
		Err:         rec.Err,
		Slow:        rec.Slow,
	}
	if rec.Root != nil {
		sj := spanToJSON(rec.Root)
		out.Root = &sj
	}
	return out
}

// TracesHandler serves the recorder's rings as JSON on /debug/traces.
// Query parameters: ring=recent|slow (default recent), stage=<prefix>
// filters by root stage name, min_micros=<n> drops faster statements,
// n=<k> caps the result count.
func TracesHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if r == nil {
			if _, err := w.Write([]byte("[]\n")); err != nil {
				return
			}
			return
		}
		q := req.URL.Query()
		recs := r.Recent()
		if q.Get("ring") == "slow" {
			recs = r.Slow()
		}
		stage := q.Get("stage")
		var minMicros int64
		if v, err := strconv.ParseInt(q.Get("min_micros"), 10, 64); err == nil {
			minMicros = v
		}
		limit := len(recs)
		if n, err := strconv.Atoi(q.Get("n")); err == nil && n >= 0 {
			limit = n
		}
		out := make([]traceJSON, 0, len(recs))
		for _, rec := range recs {
			if len(out) >= limit {
				break
			}
			if stage != "" && !strings.HasPrefix(rec.Stage, stage) {
				continue
			}
			if rec.Micros < minMicros {
				continue
			}
			out = append(out, recordToJSON(rec))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return
		}
	})
}
