package bench

import (
	"fmt"
	"math/rand"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// This file implements the BChainBench workload of Table II:
//
//	Q1  INSERT INTO donate VALUES(?,?,?)
//	Q2  TRACE OPERATOR = "org1"
//	Q3  TRACE [start,end] OPERATOR = "org1", OPERATION = "transfer"
//	Q4  SELECT * FROM donate WHERE amount BETWEEN ? AND ?
//	Q5  SELECT * FROM transfer, distribute ON
//	      transfer.organization = distribute.organization
//	Q6  SELECT * FROM onchain.distribute, offchain.doneeinfo ON
//	      distribute.donee = doneeinfo.donee
//	Q7  GET BLOCK ID=?
//
// Each runner takes the access method so the harness can reproduce the
// paper's scan / bitmap / layered comparisons, and returns the result
// count.

// Q1Tx builds one donate transaction for the write benchmark.
func Q1Tx(e *core.Engine, rng *rand.Rand, sender string) (*types.Transaction, error) {
	return e.NewTransaction(sender, "donate", []types.Value{
		types.Str(fmt.Sprintf("donor%06d", rng.Intn(1_000_000))),
		types.Str("education"),
		types.Dec(float64(rng.Intn(10_000))),
	})
}

// Q2 tracks all transactions of an operator.
func Q2(e *core.Engine, operator string, m exec.Method) (int, error) {
	q := &sqlparser.Trace{Operator: operator, HasOperator: true}
	txs, _, err := exec.Track(e.CurrentView(), q, m)
	return len(txs), err
}

// Q3 tracks an operator's operations of one type in a time window.
// twoIndexes selects the TI runs (both SenID and Tname layered indexes
// drive Algorithm 1) versus the SI runs (only the SenID index; the
// operation dimension is filtered on the fetched transactions).
func Q3(e *core.Engine, operator, operation string, win *sqlparser.Window, twoIndexes bool) (int, error) {
	if twoIndexes {
		q := &sqlparser.Trace{
			Operator: operator, HasOperator: true,
			Operation: operation, HasOperation: true,
			Window: win,
		}
		txs, _, err := exec.Track(e.CurrentView(), q, exec.MethodLayered)
		return len(txs), err
	}
	// Single index: track the operator, then filter the operation
	// client-side on the fetched transactions.
	q := &sqlparser.Trace{Operator: operator, HasOperator: true, Window: win}
	txs, _, err := exec.Track(e.CurrentView(), q, exec.MethodLayered)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tx := range txs {
		if tx.Tname == operation {
			n++
		}
	}
	return n, nil
}

// Q4 runs the range query on donate.amount.
func Q4(e *core.Engine, lo, hi float64, m exec.Method) (int, error) {
	preds := []sqlparser.Pred{{
		Col: "amount", Op: sqlparser.OpBetween,
		Val: types.Dec(lo), Hi: types.Dec(hi),
	}}
	txs, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, m)
	return len(txs), err
}

// Q5 joins transfer and distribute on organization.
func Q5(e *core.Engine, m exec.Method) (int, error) {
	rows, _, err := exec.OnChainJoin(e.CurrentView(), "transfer", "distribute",
		"organization", "organization", nil, m)
	return len(rows), err
}

// Q6 joins on-chain distribute with off-chain doneeinfo on donee.
func Q6(e *core.Engine, m exec.Method) (int, error) {
	rows, _, err := exec.OnOffJoin(e.CurrentView(), e.OffChain(), "distribute", "donee",
		"doneeinfo", "donee", nil, m)
	return len(rows), err
}

// Q7 fetches one block by id through the SQL surface.
func Q7(e *core.Engine, id uint64) (int, error) {
	res, err := e.Execute(fmt.Sprintf(`GET BLOCK ID=%d`, id))
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}
