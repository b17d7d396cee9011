package bench

import (
	"fmt"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/types"
)

// The authenticated-query figures (17-19) compare the ALI against the
// ship-all-blocks baseline for Q2 (authenticated tracking on SenID) and
// Q4 (authenticated range on donate.amount), on three metrics: VO size,
// server-side query time and client-side verification time. They are
// three views of one sweep, so a run of all three measures every chain
// once. Dataset per the paper: 100,000 donate transactions uniform over
// blocks, result size 10,000, blocks 500..2500.

var (
	fig17 = &Figure{
		Num:   17,
		Title: "Fig. 17 — Authenticated query VO size, ALI vs ship-all-blocks",
		Note:  "ALI VO is a small multiple of the result; the baseline ships the whole chain",
		Sweep: authSweep, Cols: []int{0, 1, 2, 3},
	}
	fig18 = &Figure{
		Num:   18,
		Title: "Fig. 18 — Authenticated query running time at server side",
		Note:  "ALI touches only candidate blocks through the index; basic scans everything",
		Sweep: authSweep, Cols: []int{4, 5, 6, 7},
	}
	fig19 = &Figure{
		Num:   19,
		Title: "Fig. 19 — Authenticated query running time at client side",
		Note:  "reconstructing a few MB-tree roots beats rebuilding every block's Merkle tree",
		Sweep: authSweep, Cols: []int{8, 9, 10, 11},
	}
)

// authSweep has the four approaches under each of the three metrics.
var authSweep = &Sweep{
	X: "blocks",
	Series: []Series{
		{"ALI-Q2", Bytes}, {"ALI-Q4", Bytes}, {"basic-Q2", Bytes}, {"basic-Q4", Bytes},
		{"ALI-Q2", Millis}, {"ALI-Q4", Millis}, {"basic-Q2", Millis}, {"basic-Q4", Millis},
		{"ALI-Q2", Millis}, {"ALI-Q4", Millis}, {"basic-Q2", Millis}, {"basic-Q4", Millis},
	},
	Points: authPoints,
}

func authPoints(s *Scope) ([]Point, error) {
	total := s.scaled(100_000, 600)
	result := s.scaled(10_000, 60)
	var out []Point
	for _, blocks := range s.blockSizes() {
		out = append(out, Point{X: fmt.Sprint(blocks), Open: func(s *Scope) ([]Probe, error) {
			return authProbes(s, blocks, total, result)
		}})
	}
	return out, nil
}

// authProbes opens one chain with both ALIs and returns the sweep's
// twelve probes: size, serve and verify for each approach.
func authProbes(s *Scope, blocks, total, result int) ([]Probe, error) {
	e, err := s.Engine(Dataset{
		Name: fmt.Sprintf("auth-%d", blocks),
		Load: func(e *core.Engine) error {
			txPerBlock := total / blocks
			if txPerBlock < 1 {
				txPerBlock = 1
			}
			// Result rows serve both queries: sent by org1 (Q2's tracking
			// target) with amounts inside [RangeLo, RangeHi] (Q4's window).
			err := LoadAuth(e, GenConfig{
				Blocks: blocks, TxPerBlock: txPerBlock, ResultSize: result,
				Dist: Uniform, Seed: 1,
			})
			if err == nil {
				err = e.CreateAuthIndex("", "senid")
			}
			if err == nil {
				err = e.CreateAuthIndex("donate", "amount")
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	height, headers := e.Height(), e.Headers()

	// The ship-all-blocks server reads every block; its client checks
	// each against the headers and filters locally.
	serveBasic := func() (*auth.BasicAnswer, error) {
		ans := &auth.BasicAnswer{Height: height}
		for h := uint64(0); h < height; h++ {
			b, err := e.Block(h)
			if err != nil {
				return nil, err
			}
			ans.Blocks = append(ans.Blocks, b)
		}
		return ans, nil
	}
	basic, err := serveBasic()
	if err != nil {
		return nil, err
	}

	size := make([]Probe, 4)
	serve := make([]Probe, 4)
	verify := make([]Probe, 4)
	for i, q := range []struct {
		table, col string
		lo, hi     types.Value
		match      func(*types.Transaction) bool
	}{
		{"", "senid", types.Str("org1"), types.Str("org1"),
			func(tx *types.Transaction) bool { return tx.SenID == "org1" }},
		{"donate", "amount", types.Dec(RangeLo), types.Dec(RangeHi),
			func(tx *types.Transaction) bool {
				if tx.Tname != "donate" {
					return false
				}
				v := tx.Args[2].Float()
				return v >= RangeLo && v <= RangeHi
			}},
	} {
		ali := e.CurrentView().AuthIndex(q.table, q.col)
		if ali == nil {
			return nil, fmt.Errorf("bench: no ALI on %s.%s", q.table, q.col)
		}
		ans := auth.Serve(ali, height, nil, q.lo, q.hi)
		size[i] = func() (int, error) { return auth.Serve(ali, height, nil, q.lo, q.hi).Size(), nil }
		serve[i] = func() (int, error) { return len(auth.Serve(ali, height, nil, q.lo, q.hi).Blocks), nil }
		verify[i] = func() (int, error) {
			_, txs, err := auth.VerifyAnswer(ans, q.lo, q.hi)
			return len(txs), err
		}
		size[2+i] = func() (int, error) {
			ans, err := serveBasic()
			if err != nil {
				return 0, err
			}
			return ans.Size(), nil
		}
		serve[2+i] = func() (int, error) {
			ans, err := serveBasic()
			if err != nil {
				return 0, err
			}
			return len(ans.Blocks), nil
		}
		verify[2+i] = func() (int, error) {
			txs, err := auth.BasicVerify(basic, headers, q.match)
			return len(txs), err
		}
	}
	return append(append(size, serve...), verify...), nil
}
