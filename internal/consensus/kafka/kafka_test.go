package kafka

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sebdb/internal/types"
)

// memCommitter records committed batches.
type memCommitter struct {
	mu     sync.Mutex
	blocks [][]*types.Transaction
	height uint64
	calls  atomic.Int64
}

func (m *memCommitter) CommitBlock(txs []*types.Transaction, ts int64) (*types.Block, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Add(1)
	m.blocks = append(m.blocks, txs)
	b := types.NewBlock(nil, nil, ts, "mem")
	b.Header.Height = m.height
	m.height++
	return b, nil
}

func (m *memCommitter) total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.blocks {
		n += len(b)
	}
	return n
}

func tx(i int) *types.Transaction {
	return &types.Transaction{Ts: int64(i), SenID: "c", Tname: "t",
		Args: []types.Value{types.Int(int64(i))}}
}

func TestBatchBySize(t *testing.T) {
	c := &memCommitter{}
	// A size-triggered cut also takes the partial tail behind the full
	// batches, so stragglers that arrive after it may never add up to
	// another full batch: the timeout has to be short enough to drain
	// them (with an hour, a slow scheduler hung this test for good).
	b := New(Options{BatchSize: 10, BatchTimeout: 50 * time.Millisecond})
	b.Subscribe(c)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Submit(tx(i)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := c.total(); got != 30 {
		t.Errorf("committed %d txs, want 30", got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, blk := range c.blocks {
		if len(blk) > 10 {
			t.Errorf("batch %d has %d txs (> BatchSize)", i, len(blk))
		}
	}
}

func TestBatchByTimeout(t *testing.T) {
	c := &memCommitter{}
	b := New(Options{BatchSize: 1000, BatchTimeout: 20 * time.Millisecond})
	b.Subscribe(c)
	b.Start()
	defer b.Stop()
	start := time.Now()
	if err := b.Submit(tx(1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("timeout batch took %v", elapsed)
	}
	if got := c.total(); got != 1 {
		t.Errorf("committed %d", got)
	}
}

func TestAllSubscribersReceiveSameOrder(t *testing.T) {
	c1, c2 := &memCommitter{}, &memCommitter{}
	b := New(Options{BatchSize: 5, BatchTimeout: 10 * time.Millisecond})
	b.Subscribe(c1)
	b.Subscribe(c2)
	b.Start()
	defer b.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 23; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Submit(tx(i))
		}(i)
	}
	wg.Wait()
	if c1.total() != 23 || c2.total() != 23 {
		t.Fatalf("totals %d/%d", c1.total(), c2.total())
	}
	c1.mu.Lock()
	c2.mu.Lock()
	defer c1.mu.Unlock()
	defer c2.mu.Unlock()
	if len(c1.blocks) != len(c2.blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(c1.blocks), len(c2.blocks))
	}
	for i := range c1.blocks {
		if len(c1.blocks[i]) != len(c2.blocks[i]) {
			t.Fatalf("batch %d sizes differ", i)
		}
		for j := range c1.blocks[i] {
			if c1.blocks[i][j].Ts != c2.blocks[i][j].Ts {
				t.Fatalf("batch %d tx %d differ", i, j)
			}
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	b := New(Options{})
	b.Subscribe(&memCommitter{})
	b.Start()
	b.Stop()
	if err := b.Submit(tx(1)); err != ErrStopped {
		t.Errorf("err = %v, want ErrStopped", err)
	}
	// Stop is idempotent.
	if err := b.Stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

func TestStopDrainsQueue(t *testing.T) {
	c := &memCommitter{}
	b := New(Options{BatchSize: 1000, BatchTimeout: time.Hour})
	b.Subscribe(c)
	b.Start()
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Submit(tx(i))
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let them enqueue
	b.Stop()
	wg.Wait()
	// Drained batch commits; all submitters got a response.
	if got := c.total(); got != 5 {
		t.Errorf("drained %d of 5", got)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
		}
	}
}

func TestDoubleStartFails(t *testing.T) {
	b := New(Options{})
	b.Start()
	defer b.Stop()
	if err := b.Start(); err == nil {
		t.Error("double start accepted")
	}
}
