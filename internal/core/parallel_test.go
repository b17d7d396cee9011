package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// seededChain builds an engine whose donate rows are arranged so that
// within every block the key order of amount is the REVERSE of the
// position order — any access path that emits per-block matches in key
// order instead of chain order gets caught immediately.
func seededChain(t *testing.T, blocks, txPerBlock int) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: t.TempDir(), HistogramDepth: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	})
	if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < txPerBlock; i++ {
			// Amounts descend within the block, so second-level key order is
			// the reverse of commit order.
			amount := float64((txPerBlock - i) * 10)
			tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%d", i%5)),
				types.Str("education"),
				types.Dec(amount),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(b+2) * 1000
			batch = append(batch, tx)
		}
		if _, err := e.CommitBlock(batch, int64(b+2)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	return e
}

// encodeAll serializes a result set for byte-exact comparison.
func encodeAll(txs []*types.Transaction) [][]byte {
	out := make([][]byte, len(txs))
	for i, tx := range txs {
		out[i] = tx.EncodeBytes()
	}
	return out
}

// TestSelectCrossMethodEquivalence asserts Select's contract: scan,
// bitmap and layered return byte-identical results in chain order,
// sequentially and under the parallel worker pool.
func TestSelectCrossMethodEquivalence(t *testing.T) {
	e := seededChain(t, 12, 20)
	preds := []sqlparser.Pred{{
		Col: "amount", Op: sqlparser.OpBetween,
		Val: types.Dec(30), Hi: types.Dec(150),
	}}

	e.SetParallelism(1)
	ref, refStats, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference scan returned no rows; bad fixture")
	}
	// The reference must itself be in chain order (ascending Tids).
	for i := 1; i < len(ref); i++ {
		if ref[i].Tid <= ref[i-1].Tid {
			t.Fatalf("reference scan out of chain order at %d: tid %d after %d",
				i, ref[i].Tid, ref[i-1].Tid)
		}
	}
	refBytes := encodeAll(ref)

	for _, workers := range []int{1, 8} {
		e.SetParallelism(workers)
		for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
			txs, st, err := exec.Select(e.CurrentView(), "donate", preds, nil, m)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, m, err)
			}
			got := encodeAll(txs)
			if len(got) != len(refBytes) {
				t.Fatalf("workers=%d %v: %d rows, want %d", workers, m, len(got), len(refBytes))
			}
			for i := range got {
				if !bytes.Equal(got[i], refBytes[i]) {
					t.Fatalf("workers=%d %v: row %d differs from scan reference (tid %d vs %d)",
						workers, m, i, txs[i].Tid, ref[i].Tid)
				}
			}
			if m == exec.MethodScan && st != refStats {
				t.Fatalf("workers=%d scan stats %+v differ from sequential %+v", workers, st, refStats)
			}
		}
	}
}

// TestParallelReplayEquivalence checks that the decode-ahead replay on
// Open rebuilds the same engine state as a sequential replay.
func TestParallelReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, HistogramDepth: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		var batch []*types.Transaction
		for i := 0; i < 15; i++ {
			tx, err := e.NewTransaction("org1", "donate", []types.Value{
				types.Str("d"), types.Str("p"), types.Dec(float64(b*100 + i)),
			})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, tx)
		}
		if _, err := e.CommitBlock(batch, int64(b+2)*1000); err != nil {
			t.Fatal(err)
		}
	}
	wantHeight := e.Height()
	wantTxs, _, err := exec.Select(e.CurrentView(), "donate", nil, nil, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, HistogramDepth: 10, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}()
	if re.Height() != wantHeight {
		t.Fatalf("replayed height %d, want %d", re.Height(), wantHeight)
	}
	got, _, err := exec.Select(re.CurrentView(), "donate", nil, nil, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantTxs) {
		t.Fatalf("replayed %d rows, want %d", len(got), len(wantTxs))
	}
	for i := range got {
		if !bytes.Equal(got[i].EncodeBytes(), wantTxs[i].EncodeBytes()) {
			t.Fatalf("replayed row %d differs", i)
		}
	}
	// Tid assignment must continue from the replayed counter.
	tx, err := re.NewTransaction("org1", "donate", []types.Value{
		types.Str("d"), types.Str("p"), types.Dec(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.CommitBlock([]*types.Transaction{tx}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantTxs[len(wantTxs)-1].Tid + 1; b.Txs[0].Tid != want {
		t.Fatalf("post-replay tid %d, want %d", b.Txs[0].Tid, want)
	}
}

// TestCreateIndexCommitBlockRace hammers CreateIndex concurrently with
// CommitBlock and asserts the finished index covers every committed
// block. Before the gap-catchup fix, blocks committed between the end
// of the backfill and the index registration were silently dropped
// from layered queries forever.
func TestCreateIndexCommitBlockRace(t *testing.T) {
	const attempts = 8
	for a := 0; a < attempts; a++ {
		e, err := Open(Config{Dir: t.TempDir(), HistogramDepth: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushAt(1); err != nil {
			t.Fatal(err)
		}
		commit := func(n int) {
			for i := 0; i < n; i++ {
				tx, err := e.NewTransaction("org1", "donate", []types.Value{
					types.Str("donorX"), types.Str("p"), types.Dec(float64(i)),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.CommitBlock([]*types.Transaction{tx}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
		commit(10) // some chain to backfill

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					commit(1)
				}
			}
		}()
		if err := e.CreateIndex("donate", "donor"); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()

		// Every committed donate row carries donor "donorX"; the layered
		// path must see them all.
		preds := []sqlparser.Pred{{Col: "donor", Op: sqlparser.OpEq, Val: types.Str("donorX")}}
		want, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("attempt %d: layered index dropped rows: got %d, scan found %d",
				a, len(got), len(want))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetBlockRejectsNegative checks GET BLOCK ID/TID=-1 errors instead
// of wrapping to a huge unsigned id.
func TestGetBlockRejectsNegative(t *testing.T) {
	e := seededChain(t, 3, 5)
	for _, q := range []string{`GET BLOCK ID=-1`, `GET BLOCK TID=-1`} {
		if _, err := e.Execute(q); err == nil {
			t.Fatalf("%s: expected error, got none", q)
		}
	}
	if _, err := e.Execute(`GET BLOCK ID=0`); err != nil {
		t.Fatalf("GET BLOCK ID=0: %v", err)
	}
}
