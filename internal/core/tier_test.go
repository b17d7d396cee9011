package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/obs"
	"sebdb/internal/snapshot"
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

// TestBackfillRacesCompression creates a continuous layered index and
// an ALI while the background compactor rewrites sealed segments and
// commits keep landing, so backfill's per-height reads race segment
// swaps; run under -race it checks the store's one lock-ordered read.
// Both indexes must equal what a full replay of the same chain builds.
func TestBackfillRacesCompression(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), SegmentSize: 2048, CompressAfter: 1, BlockMaxTxs: 5, HistogramDepth: 10}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 150, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.CommitBlock([]*types.Transaction{donateTx(t, e, 1000+i)}, int64(5000+i)*1000); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Error(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		e.Close()
		return
	}

	indexes := func(e *Engine) string {
		v := e.CurrentView()
		x, ali := v.Layered("donate", "amount"), v.AuthIndex("donate", "amount")
		if x == nil || ali == nil {
			t.Fatal("index not registered")
		}
		var sb strings.Builder
		for _, r := range [][2]float64{{0, 20}, {40, 90}, {100, 1200}, {-5, 5000}} {
			lo, hi := types.Dec(r[0]), types.Dec(r[1])
			fmt.Fprintf(&sb, "%v: %v %x\n", r, x.CandidateBlocks(lo, hi).Slice(), auth.Digest(ali, v.Height(), nil, lo, hi))
		}
		for bid := uint64(0); bid < v.Height(); bid++ {
			fmt.Fprintf(&sb, "%d: %v\n", bid, x.BlockEntries(bid))
		}
		return sb.String()
	}
	want := indexes(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.CompressAfter, cfg.DisableCheckpointLoad = 0, true
	if got := indexes(testEngine(t, cfg)); got != want {
		t.Errorf("indexes built while segments were rewritten differ from a full replay's:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointStaleAfterCompression writes a checkpoint, then
// recompresses the chain underneath it — what the background compactor
// does soon after every interval. The checkpoint's segment geometry is
// now stale, but its index state is chain-derived and does not care
// where blocks sit: the restart scans the segments and still seeds
// catalog, indexes and ALIs from the checkpoint, replaying only the
// suffix. Only a checkpoint whose anchor is not on the chain at all is
// thrown away for a full replay.
func TestCheckpointStaleAfterCompression(t *testing.T) {
	cfg := Config{SegmentSize: 2048, BlockMaxTxs: 5}
	build := func(dir string, rows int) (fingerprint string, ckptHeight, height uint64) {
		cfg.Dir = dir
		e := testEngine(t, cfg)
		seedDonation(t, e, rows, 5)
		if err := e.CreateAuthIndex("donate", "amount"); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteCheckpoint(); err != nil {
			t.Fatal(err)
		}
		ckptHeight = e.Height()
		for i := 0; i < 15; i += 5 { // a suffix past the checkpoint
			if _, err := e.CommitBlock([]*types.Transaction{donateTx(t, e, 1000+i)}, int64(2000+i)*1000); err != nil {
				t.Fatal(err)
			}
		}
		// Invalidate the checkpoint's segment geometry after the fact.
		if err := e.CompressSealed(1); err != nil {
			t.Fatal(err)
		}
		fingerprint, height = recoveryFingerprint(t, e), e.Height()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return fingerprint, ckptHeight, height
	}
	reopen := func(dir string) (*Engine, *obs.Registry) {
		cfg.Dir, cfg.Obs = dir, obs.NewRegistry(clock.UnixMicro)
		return testEngine(t, cfg), cfg.Obs
	}

	dir := t.TempDir()
	fpBefore, ckptHeight, height := build(dir, 60)
	re, reg := reopen(dir)
	if got := recoveryFingerprint(t, re); got != fpBefore {
		t.Error("restart over a stale-geometry checkpoint diverged from the live engine")
	}
	if got := reg.Counter("sebdb_snapshot_stale_geometry_total").Value(); got != 1 {
		t.Errorf("stale-geometry restarts counted = %d, want 1", got)
	}
	if got, want := reg.Counter("sebdb_snapshot_suffix_blocks").Value(), height-ckptHeight; got != want {
		t.Errorf("replayed %d blocks, want the %d-block suffix past the checkpoint", got, want)
	}

	// A checkpoint cut from another chain of the same height: its
	// geometry fails just the same, and so does its anchor.
	other := t.TempDir()
	build(other, 59)
	if err := os.RemoveAll(filepath.Join(dir, snapshot.DirName)); err != nil {
		t.Fatal(err)
	}
	copyTree(t, filepath.Join(other, snapshot.DirName), filepath.Join(dir, snapshot.DirName))
	re, reg = reopen(dir)
	if got := recoveryFingerprint(t, re); got != fpBefore {
		t.Error("restart over a foreign checkpoint diverged from the live engine")
	}
	if got := reg.Counter("sebdb_snapshot_anchor_mismatch_total").Value(); got != 1 {
		t.Errorf("anchor mismatches counted = %d, want 1", got)
	}
	if got := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); got != height {
		t.Errorf("replayed %d blocks, want a full replay of %d", got, height)
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
