package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sebdb/internal/types"
)

// TestTierRaceCacheReadsVsCommits hammers the sharded block/tx caches
// from concurrent readers while the commit path keeps appending; under
// -race it checks the stripes are independently safe and that reads
// stay correct while the chain grows.
func TestTierRaceCacheReadsVsCommits(t *testing.T) {
	e := testEngine(t, Config{
		CacheMode:   CacheTxs,
		CacheBytes:  1 << 16, // small, so eviction churns during the race
		BlockMaxTxs: 5,
	})
	seedDonation(t, e, 60, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := e.CurrentView().NumBlocks()
				bid := uint64((g*13 + i) % n)
				b, err := e.Block(bid)
				if err != nil {
					t.Errorf("block %d: %v", bid, err)
					return
				}
				if len(b.Txs) > 0 {
					if _, err := e.Tx(bid, uint32(i%len(b.Txs))); err != nil {
						t.Errorf("tx %d/%d: %v", bid, i%len(b.Txs), err)
						return
					}
				}
			}
		}(g)
	}
	// Don't start (and finish) the commits before the readers have been
	// scheduled at all, or the final counter assertion races the runtime.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if s := e.CacheStats(); s.Hits+s.Misses > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readers never touched the cache")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		tx, err := e.NewTransaction("org1", "donate", []types.Value{
			types.Str(fmt.Sprintf("racer%03d", i)), types.Str("education"), types.Dec(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CommitBlock([]*types.Transaction{tx}, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if stats := e.CacheStats(); stats.Hits+stats.Misses == 0 {
		t.Error("race run never touched the cache")
	}
}

// TestBackgroundCompactor checks the CompressAfter goroutine really
// rewrites sealed segments behind the tail and that queries keep
// answering identically while and after it runs.
func TestBackgroundCompactor(t *testing.T) {
	e := testEngine(t, Config{
		SegmentSize:   2048,
		CompressAfter: 1,
		BlockMaxTxs:   5,
	})
	seedDonation(t, e, 80, 5)
	before := mustExec(t, e, `SELECT * FROM donate WHERE donor = "donor003"`)

	deadline := time.After(10 * time.Second)
	for {
		comp, err := e.store.Compressed(0)
		if err != nil {
			t.Fatal(err)
		}
		if comp {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background compactor never recompressed a segment")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if _, err := e.DiskBytes(); err != nil {
		t.Fatal(err)
	}
	after := mustExec(t, e, `SELECT * FROM donate WHERE donor = "donor003"`)
	if len(after.Rows) != len(before.Rows) {
		t.Errorf("rows changed across recompression: %d -> %d", len(before.Rows), len(after.Rows))
	}
}

// TestCheckpointStaleAfterCompression writes a checkpoint, then
// recompresses the chain underneath it: the restart must detect the
// stale block locations, fall back to full replay, and still answer
// identically — slower, never wrong.
func TestCheckpointStaleAfterCompression(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, Config{Dir: dir, SegmentSize: 2048, BlockMaxTxs: 5})
	seedDonation(t, e, 60, 5)
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Invalidate the checkpoint's segment geometry after the fact.
	if err := e.CompressSealed(1); err != nil {
		t.Fatal(err)
	}
	fpBefore := recoveryFingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := testEngine(t, Config{Dir: dir, SegmentSize: 2048, BlockMaxTxs: 5})
	if got := recoveryFingerprint(t, re); got != fpBefore {
		t.Error("replay after a stale checkpoint diverged from the live engine")
	}
}

// TestCheckpointRoundTripCompressed checks the v2 checkpoint written
// AFTER recompression seeds a store over the mixed segments directly.
func TestCheckpointRoundTripCompressed(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, Config{Dir: dir, SegmentSize: 2048, BlockMaxTxs: 5})
	seedDonation(t, e, 60, 5)
	if err := e.CompressSealed(1); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	fpBefore := recoveryFingerprint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := testEngine(t, Config{Dir: dir, SegmentSize: 2048, BlockMaxTxs: 5, Mmap: true})
	if got := recoveryFingerprint(t, re); got != fpBefore {
		t.Error("checkpoint-seeded engine diverged over compressed segments")
	}
}
