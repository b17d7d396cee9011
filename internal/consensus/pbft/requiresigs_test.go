package pbft

import (
	"crypto/ed25519"
	"sync"
	"testing"
	"time"
)

// TestRequireSigsMixedBatch queues interleaved signed and unsigned
// transactions: the propose-stage batch check must hand ErrRejected to
// exactly the unsigned submitters and drive consensus over the signed
// remainder on every replica. (Proposals are cut on the batch timer, so
// the stream may span several proposals; the per-submitter verdicts and
// replica totals are timing-independent.)
func TestRequireSigsMixedBatch(t *testing.T) {
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	cs, mems := committers(4)
	cl, err := New(Options{F: 1, BatchSize: 8, BatchTimeout: 10 * time.Millisecond,
		RequireSigs: true, Parallelism: 4}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := tx(i)
			if i%2 == 0 {
				tr.Sign(key)
			}
			errs[i] = cl.Submit(tr)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if i%2 == 0 && err != nil {
			t.Errorf("signed tx %d: %v", i, err)
		}
		if i%2 == 1 && err != ErrRejected {
			t.Errorf("unsigned tx %d: err = %v, want ErrRejected", i, err)
		}
	}
	// Submit returns once a quorum has committed; the remaining replicas
	// deliver a moment later, so give each one time to get there.
	deadline := time.Now().Add(5 * time.Second)
	for r, m := range mems {
		for m.total() < 4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := m.total(); got != 4 {
			t.Errorf("replica %d committed %d txs, want the 4 signed ones", r, got)
		}
	}
}
