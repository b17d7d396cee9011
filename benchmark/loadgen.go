package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// The load generator: closed-loop and open-loop drivers over validated
// requests, and the INSERT writer that runs beside the readers in the
// write workloads.

// Target is one reader connection: where plain statements go and, when
// the workload uses the thin client, how authenticated ranges are asked.
type Target struct {
	SQL func(q string) (*core.Result, error)
	// Auth runs the two-phase authenticated range query on
	// donate.amount; nil when the workload has no thin client.
	Auth func(lo, hi int) ([]*types.Transaction, error)
}

// Do sends one statement and checks the reply against the oracle's
// answer. A wrong answer is as much a failure as an error.
func (t *Target) Do(st *Stmt) error {
	var got Answer
	if st.Kind == AuthRange {
		txs, err := t.Auth(st.Lo, st.Hi)
		if err != nil {
			return err
		}
		got = DigestTxs(txs)
	} else {
		res, err := t.SQL(st.SQL)
		if err != nil {
			return err
		}
		got = DigestRows(res.Rows)
	}
	if got != st.Want {
		return fmt.Errorf("wrong answer to %s: %d rows digest %x, want %d rows digest %x",
			st.Kind, got.Rows, got.Digest, st.Want.Rows, st.Want.Digest)
	}
	return nil
}

// thinTarget builds the follow_verified reader: plain reads go through
// the router (follower first), authenticated ranges take their VO from
// the follower and the confirming digest from the leader, and the client
// keeps its header chain current as the leader's chain grows.
func thinTarget(leader, follower node.QueryNode, seed int64) *Target {
	router := thinclient.NewRouter(leader, follower)
	client := thinclient.New(seed)
	queries := 0
	return &Target{
		SQL: router.SQL,
		Auth: func(lo, hi int) ([]*types.Transaction, error) {
			if queries%50 == 0 {
				if err := client.SyncHeaders(leader); err != nil {
					return nil, err
				}
			}
			queries++
			full, aux := router.AuthTargets()
			req := &node.AuthRequest{Table: "donate", Col: "amount",
				Lo: types.Dec(float64(lo)), Hi: types.Dec(float64(hi))}
			txs, _, err := client.AuthQuery(full, aux, req, thinclient.Options{})
			return txs, err
		},
	}
}

// Stream hands out the workload's statements in order; every connection
// draws from the same cursor, so the sequence sent is the pool cycled.
type Stream struct {
	pool []Stmt
	next atomic.Int64
}

func (s *Stream) take() *Stmt {
	i := s.next.Add(1) - 1
	return &s.pool[int(i%int64(len(s.pool)))]
}

// PhaseResult is what one driver run observed.
type PhaseResult struct {
	Attempted, Failed int
	Elapsed           time.Duration
	LatencyMS         []float64 // per correct reply; open loop: from the due time
	LateMS            []float64 // open loop only: send time minus due time
	DoneAt            []float64 // closed loop only: completion time of each correct reply, seconds into the phase
	FirstErr          error
}

func (r *PhaseResult) merge(o PhaseResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.LatencyMS = append(r.LatencyMS, o.LatencyMS...)
	r.LateMS = append(r.LateMS, o.LateMS...)
	r.DoneAt = append(r.DoneAt, o.DoneAt...)
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

// Correct is the number of validated replies.
func (r *PhaseResult) Correct() int { return r.Attempted - r.Failed }

func (r *PhaseResult) record(err error, latency, late time.Duration) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.FirstErr == nil {
			r.FirstErr = err
		}
		return
	}
	r.LatencyMS = append(r.LatencyMS, float64(latency)/float64(time.Millisecond))
	if late >= 0 {
		r.LateMS = append(r.LateMS, float64(late)/float64(time.Millisecond))
	}
}

// stopped reports whether stop (nil = never) has been closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// runClosed drives every target in a closed loop for d, or until stop
// closes: each connection sends its next statement when the previous
// reply has arrived.
func runClosed(targets []*Target, stream *Stream, d time.Duration, stop <-chan struct{}) PhaseResult {
	return perTarget(targets, func(t *Target, start time.Time, out *PhaseResult) {
		deadline := start.Add(d)
		for time.Now().Before(deadline) && !stopped(stop) {
			t0 := time.Now()
			err := t.Do(stream.take())
			out.record(err, time.Since(t0), -1)
			if err == nil {
				out.DoneAt = append(out.DoneAt, time.Since(start).Seconds())
			}
		}
	})
}

// perTarget runs body once per connection, each on its own goroutine
// with its own result, and merges the results when all have returned.
func perTarget(targets []*Target, body func(t *Target, start time.Time, out *PhaseResult)) PhaseResult {
	start := time.Now()
	parts := make([]PhaseResult, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(t *Target, out *PhaseResult) {
			defer wg.Done()
			body(t, start, out)
		}(t, &parts[i])
	}
	wg.Wait()
	var total PhaseResult
	for _, p := range parts {
		total.merge(p)
	}
	total.Elapsed = time.Since(start)
	return total
}

// WindowedRate is the median, over whole windows of the given length, of
// correct replies per second. One stalled window (a neighbour's burst, a
// collection) moves the mean of a short phase; it does not move this.
func (r *PhaseResult) WindowedRate(window float64) float64 {
	n := int(r.Elapsed.Seconds() / window)
	if n < 2 {
		return float64(r.Correct()) / r.Elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range r.DoneAt {
		if i := int(t / window); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= window
	}
	return Median(sortedCopy(counts))
}

// Schedule returns the due offsets of a Poisson arrival process of the
// given rate over d: independent users, not a metronome. The seed fixes
// it, so parent and change are offered the identical load.
func Schedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x0be1))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return due
		}
		due = append(due, off)
	}
}

// waitUntil sleeps until t and reports false if stop closed first.
// Timer wake-ups run tens of microseconds late; spinning the remainder
// away would take a core from the server on a two-core box, so the
// lateness is reported instead (LateMS).
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		return !stopped(stop)
	}
	if stop == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// runOpen drives the targets in an open loop: statement k is due at
// start+due[k] whatever happened to the ones before it. Each connection
// takes the next due statement when it is free; latency is counted from
// the due time, so a stall is charged to every request queued behind it,
// and how late each request was actually sent is reported too. Closing
// stop ends the phase before the schedule does.
func runOpen(targets []*Target, stream *Stream, due []time.Duration, stop <-chan struct{}) PhaseResult {
	var next atomic.Int64
	return perTarget(targets, func(t *Target, start time.Time, out *PhaseResult) {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(due) {
				return
			}
			dueAt := start.Add(due[k])
			if !waitUntil(dueAt, stop) {
				return
			}
			sent := time.Now()
			err := t.Do(stream.take())
			out.record(err, time.Since(dueAt), sent.Sub(dueAt))
		}
	})
}

// blockTxs is the server's block size: a standalone server cuts a block
// exactly when this many INSERTs have queued, inside the reply to the
// last of them.
const blockTxs = 200

// Writer sends the generated INSERT stream over one connection. It only
// ever stops on a block boundary, because a standalone server never
// flushes a partial mempool.
type Writer struct {
	sql  func(q string) (*core.Result, error)
	seed int64

	mu       sync.Mutex
	sent     int       // INSERTs acknowledged
	failed   int       // INSERTs that returned an error
	cutMS    []float64 // latency of each INSERT whose reply carried a block cut
	firstErr error

	stop chan struct{}
	done chan struct{}
}

func newWriter(sql func(string) (*core.Result, error), seed int64) *Writer {
	return &Writer{sql: sql, seed: seed}
}

// insertOne sends INSERT number w.sent and records it.
func (w *Writer) insertOne() {
	w.mu.Lock()
	i := w.sent + w.failed
	w.mu.Unlock()
	t0 := time.Now()
	_, err := w.sql(InsertSQL(w.seed, i))
	lat := time.Since(t0)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.sent++
	if w.sent%blockTxs == 0 {
		w.cutMS = append(w.cutMS, float64(lat)/float64(time.Millisecond))
	}
}

// Blocks is how many block cuts the server has acknowledged.
func (w *Writer) Blocks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent / blockTxs
}

// waitBlocks returns once n block cuts have been acknowledged (or the
// writer has failed an INSERT and may never get there).
func (w *Writer) waitBlocks(n int) {
	for {
		w.mu.Lock()
		done := w.sent/blockTxs >= n || w.failed > 0
		w.mu.Unlock()
		if done {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// Acked is how many INSERTs have been acknowledged.
func (w *Writer) Acked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent
}

// WriteBlocks sends n whole blocks back to back (closed loop).
func (w *Writer) WriteBlocks(n int) {
	for i := 0; i < n*blockTxs; i++ {
		w.insertOne()
	}
}

// Start runs the writer in the background until Stop, paced at rate
// INSERTs per second with each INSERT due on a fixed grid (a writer that
// falls behind catches up).
func (w *Writer) Start(rate float64) {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		start := time.Now()
		for n := 0; ; n++ {
			if w.Acked()%blockTxs == 0 {
				select {
				case <-w.stop:
					return
				default:
				}
			}
			waitUntil(start.Add(time.Duration(float64(n)/rate*float64(time.Second))), nil)
			w.insertOne()
		}
	}()
}

// Stop lets the writer finish its current block and waits for it.
func (w *Writer) Stop() {
	close(w.stop)
	<-w.done
}
