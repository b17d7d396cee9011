package exec_test

// Empirical validation of the cost model (paper §IV-B, Equations 1-3):
// the physical work each access method reports through exec.Stats must
// match the equations' variables — scan touches all n blocks, bitmap
// only the k blocks holding the table, layered roughly p tuples.

import (
	"fmt"
	"testing"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/plan"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// sparseFixture builds a chain where the donate table occupies only
// every 4th block, so k (bitmap blocks) is visibly smaller than n.
func sparseFixture(t testing.TB, blocks, perBlock int) (*core.Engine, int) {
	t.Helper()
	e, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, ddl := range []string{
		`CREATE donate (donor string, project string, amount decimal)`,
		`CREATE noise (v int)`,
	} {
		if _, err := e.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	seq := 0
	donateBlocks := 0
	for b := 0; b < blocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < perBlock; i++ {
			var tx *types.Transaction
			var err error
			if b%4 == 0 {
				tx, err = e.NewTransaction("org1", "donate", []types.Value{
					types.Str(fmt.Sprintf("d%04d", seq)),
					types.Str("edu"),
					types.Dec(float64(seq)),
				})
			} else {
				tx, err = e.NewTransaction("org2", "noise", []types.Value{types.Int(int64(seq))})
			}
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(b+1) * 1000
			batch = append(batch, tx)
			seq++
		}
		if b%4 == 0 {
			donateBlocks++
		}
		if _, err := e.CommitBlock(batch, int64(b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	return e, donateBlocks
}

func TestCostModelVariablesMatchStats(t *testing.T) {
	const blocks, perBlock = 40, 20
	e, donateBlocks := sparseFixture(t, blocks, perBlock)
	n := e.CurrentView().NumBlocks() // includes the schema block

	// Donate rows live in blocks 0,4,8,... so their amounts (= seq) come
	// in runs of 20 per 80; [160,179] is block 8's run.
	preds := []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpBetween,
		Val: types.Dec(160), Hi: types.Dec(179)}}

	// Equation 1: scan reads every block.
	_, sScan, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	if sScan.BlocksRead != n {
		t.Errorf("scan read %d blocks, n = %d", sScan.BlocksRead, n)
	}

	// Equation 2: bitmap reads exactly the k blocks holding donate rows.
	_, sBm, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	if sBm.BlocksRead != donateBlocks {
		t.Errorf("bitmap read %d blocks, k = %d", sBm.BlocksRead, donateBlocks)
	}

	// Equation 3: layered examines on the order of p tuples — here
	// exactly p, because the driving predicate is the only one.
	res, sLay, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	p := len(res)
	if p == 0 {
		t.Fatal("probe range empty")
	}
	if sLay.TxsExamined != p {
		t.Errorf("layered examined %d txs, p = %d", sLay.TxsExamined, p)
	}
	if sLay.BlocksRead != 0 {
		t.Errorf("layered read %d whole blocks", sLay.BlocksRead)
	}

	// The planner, fed the same variables, picks layered for this
	// selective query and bitmap once p dwarfs the block costs.
	cm := plan.DefaultCostModel()
	if ch := plan.Choose(cm, n, donateBlocks, p); ch.Method != exec.MethodLayered {
		t.Errorf("planner chose %v for selective query", ch.Method)
	}
	if ch := plan.Choose(cm, n, donateBlocks, 100_000_000); ch.Method == exec.MethodLayered {
		t.Error("planner chose layered for an enormous result")
	}
}

func TestTrackingStatsOrdering(t *testing.T) {
	e, _ := sparseFixture(t, 40, 20)
	q := &sqlparser.Trace{Operator: "org1", HasOperator: true}
	_, sScan, err := exec.Track(e.CurrentView(), q, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	_, sBm, err := exec.Track(e.CurrentView(), q, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	_, sLay, err := exec.Track(e.CurrentView(), q, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	// org1 sends only donate rows (every 4th block): org1's SenID
	// bitmap prunes the same blocks, and the layered path touches only
	// org1's transactions.
	if !(sLay.TxsExamined <= sBm.TxsExamined && sBm.TxsExamined <= sScan.TxsExamined) {
		t.Errorf("tx work not ordered: layered %d, bitmap %d, scan %d",
			sLay.TxsExamined, sBm.TxsExamined, sScan.TxsExamined)
	}
	if !(sBm.BlocksRead < sScan.BlocksRead) {
		t.Errorf("bitmap read %d blocks, scan %d", sBm.BlocksRead, sScan.BlocksRead)
	}
}
