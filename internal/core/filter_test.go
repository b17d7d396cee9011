package core

import (
	"context"
	"fmt"
	"testing"

	"sebdb/internal/exec"
	"sebdb/internal/obs"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// wideBucketChain builds blocks of ten donate rows with amounts 10..100;
// in the blocks listed in odd, the row of 50 is 55 instead. An amount
// histogram puts 55 in a bucket every block reaches, so the first level
// of `amount = 55` passes every block and the second level matches in
// the odd ones only.
func wideBucketChain(t *testing.T, cfg Config, blocks int, odd ...int) *Engine {
	t.Helper()
	cfg.HistogramDepth = 4
	e := testEngine(t, cfg)
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		var batch []*types.Transaction
		for i := 1; i <= 10; i++ {
			amount := float64(10 * i)
			for _, o := range odd {
				if b == o && i == 5 {
					amount = 55
				}
			}
			tx, err := e.NewTransaction("org1", "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%d", i)), types.Str("education"), types.Dec(amount),
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
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	return e
}

// parallelTasks is the process-wide count of parallel.Ordered tasks.
func parallelTasks() uint64 {
	return obs.Default.Counter(`sebdb_parallel_tasks_total{path="seq"}`).Value() +
		obs.Default.Counter(`sebdb_parallel_tasks_total{path="par"}`).Value()
}

// TestLayeredFansOutPerMatchedBlock: the first level passes all 16
// blocks, the second level matches in two. Every candidate still counts
// as one index probe — the Stats are what they were when each candidate
// was its own task — but only the two matched blocks are fanned out.
func TestLayeredFansOutPerMatchedBlock(t *testing.T) {
	e := wideBucketChain(t, Config{}, 16, 3, 11)
	preds := []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpEq, Val: types.Dec(55)}}
	want := exec.Stats{BlocksRead: 0, TxsExamined: 2, IndexProbes: 16}
	for _, workers := range []int{1, 8} {
		e.SetParallelism(workers)
		v := e.CurrentView()
		tbl, err := v.Table("donate")
		if err != nil {
			t.Fatal(err)
		}
		_, probe := v.estimateLayered(tbl, preds)
		for _, run := range []struct {
			name string
			sel  func() ([]*types.Transaction, exec.Stats, error)
		}{
			{"operator walk", func() ([]*types.Transaction, exec.Stats, error) {
				return exec.Select(v, "donate", preds, nil, exec.MethodLayered)
			}},
			{"planner probe", func() ([]*types.Transaction, exec.Stats, error) {
				return exec.SelectProbed(context.Background(), v, "donate", preds, nil, probe)
			}},
		} {
			before := parallelTasks()
			txs, st, err := run.sel()
			if err != nil {
				t.Fatal(err)
			}
			if got := parallelTasks() - before; got != 2 {
				t.Errorf("workers=%d %s: %d parallel tasks, want one per matched block (2)", workers, run.name, got)
			}
			if st != want || len(txs) != 2 {
				t.Errorf("workers=%d %s: %d rows, stats %+v, want 2 rows, %+v", workers, run.name, len(txs), st, want)
			}
		}
	}
}

// TestBitmapMissAllocatesPerBlock: a bitmap select that matches nothing
// reads every block of the table, yet allocates per block, not per
// transaction: no row is built, on the plain tier or the compressed one.
func TestBitmapMissAllocatesPerBlock(t *testing.T) {
	const blocks, perBlock = 8, 40
	for _, compressed := range []bool{false, true} {
		e := testEngine(t, Config{SegmentSize: 4096, BlockMaxTxs: perBlock})
		seedDonation(t, e, blocks*perBlock, perBlock)
		if compressed {
			if err := e.CompressSealed(1); err != nil {
				t.Fatal(err)
			}
		}
		v := e.CurrentView()
		preds := []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpEq, Val: types.Dec(-1)}}
		var st exec.Stats
		allocs := testing.AllocsPerRun(20, func() {
			txs, s, err := exec.Select(v, "donate", preds, nil, exec.MethodBitmap)
			if err != nil || len(txs) != 0 {
				t.Fatalf("%d rows, %v", len(txs), err)
			}
			st = s
		})
		if st.TxsExamined < blocks*perBlock {
			t.Fatalf("fixture: examined %d transactions, want at least %d", st.TxsExamined, blocks*perBlock)
		}
		t.Logf("compressed=%v: %.0f allocations for %d blocks, %d transactions", compressed, allocs, st.BlocksRead, st.TxsExamined)
		if perBlockAllocs := allocs / float64(st.BlocksRead); perBlockAllocs > perBlock/2 {
			t.Errorf("compressed=%v: %.1f allocations per block of %d transactions", compressed, perBlockAllocs, perBlock)
		}
	}
}
