// Package parallel provides the bounded-worker, order-preserving
// fan-out primitive behind SEBDB's read pipeline. The paper's cost
// model (§VII, Equations 1-3) is dominated by how fast blocks and
// tuples come off disk; the block files are immutable once written, so
// independent block reads can proceed concurrently as long as the
// consumers that build chain state (indexes, result sets, statistics)
// still observe them in height order. Ordered encodes exactly that
// contract: produce in parallel, consume sequentially in index order.
package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"sebdb/internal/obs"
)

// Stop is returned by a consume callback to end an Ordered run early
// without reporting an error (e.g. a sampler that has enough values).
// Outstanding produce calls are cancelled best-effort.
var Stop = errors.New("parallel: stop")

// errCanceled marks results of produce calls skipped after a stop; it
// never escapes Ordered.
var errCanceled = errors.New("parallel: canceled")

// Default is the default worker bound: the runtime's GOMAXPROCS.
func Default() int { return runtime.GOMAXPROCS(0) }

// Ordered runs produce(0..n-1) on up to workers goroutines and feeds
// every result to consume on the calling goroutine in index order, so
// consumers that require sequential input (chain-order merges, index
// appends, deterministic statistics) need no locking of their own.
//
// The workers are long-lived for the run: each takes the next index
// from a dispatcher until none is left, so a run of n produce calls
// starts workers goroutines, not n, and each keeps the stack it grew.
// At most workers results wait for consume beyond the ones in flight.
//
// Error semantics are deterministic regardless of scheduling: the
// error of the lowest failing index is returned, and consume sees
// exactly the results of the indexes before it. A consume error stops
// the run the same way; returning Stop stops it with a nil error.
// Ordered returns only once every produce call it started has returned.
// workers <= 1 degenerates to a plain sequential loop.
func Ordered[T any](workers, n int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			mTasksSeq.Inc()
			v, err := produce(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				if errors.Is(err, Stop) {
					return nil
				}
				return err
			}
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	type task struct {
		i   int
		fut chan result
	}
	mRuns.Inc()
	var stop atomic.Bool
	// futures carries one buffered channel per index, in index order;
	// the buffer lets workers complete out of order without blocking,
	// and its capacity is the window of results waiting for consume.
	futures := make(chan chan result, workers)
	// tasks hands indexes to the workers; unbuffered, so the dispatcher
	// issues an index only to a worker ready to run it.
	tasks := make(chan task)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for t := range tasks {
				if stop.Load() {
					var zero T
					t.fut <- result{zero, errCanceled}
					continue
				}
				mTasksPar.Inc()
				mInflight.Add(1)
				v, err := produce(t.i)
				mInflight.Add(-1)
				t.fut <- result{v, err}
			}
		}()
	}
	go func() {
		defer close(futures)
		for i := 0; i < n && !stop.Load(); i++ {
			fut := make(chan result, 1)
			mQueueDepth.Add(1)
			futures <- fut
			tasks <- task{i, fut}
		}
		close(tasks)
		wg.Wait()
	}()

	var first error
	i := 0
	for fut := range futures {
		waitStart := obs.Default.Now()
		r := <-fut
		mMergeStall.Observe(obs.Default.Now() - waitStart)
		mQueueDepth.Add(-1)
		switch {
		case first != nil:
			// Draining after a failure or stop; results are dropped.
		case r.err != nil:
			first = r.err
			stop.Store(true)
		default:
			if err := consume(i, r.v); err != nil {
				first = err
				stop.Store(true)
			}
		}
		i++
	}
	if errors.Is(first, Stop) {
		return nil
	}
	return first
}
