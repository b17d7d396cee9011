package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/types"
)

// The authenticated-query figures (17-19) compare the ALI against the
// ship-all-blocks baseline for Q2 (authenticated tracking on SenID) and
// Q4 (authenticated range on donate.amount), on three metrics: VO size,
// server-side query time and client-side verification time. Dataset
// per the paper: 100,000 donate transactions uniform over blocks,
// result size 10,000, blocks 500..2500.

// authDataset loads (or reopens) the Fig. 17-19 dataset and returns
// the engine with both ALIs ready.
func authDataset(dir string, blocks, total, result int) (*core.Engine, error) {
	e, err := NewEngine(dir, core.CacheNone)
	if err != nil {
		return nil, err
	}
	if e.Height() == 0 {
		txPerBlock := total / blocks
		if txPerBlock < 1 {
			txPerBlock = 1
		}
		// Result rows serve both queries: sent by org1 (Q2's tracking
		// target) with amounts inside [RangeLo, RangeHi] (Q4's window).
		err = LoadAuth(e, GenConfig{
			Blocks: blocks, TxPerBlock: txPerBlock, ResultSize: result,
			Dist: Uniform, Seed: 1,
		})
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
	}
	if err := e.CreateAuthIndex("", "senid"); err != nil {
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		return nil, err
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		return nil, err
	}
	return e, nil
}

// authMetrics holds one (query, approach) measurement.
type authMetrics struct {
	voSize     int
	serverTime time.Duration
	clientTime time.Duration
}

// runALI measures the ALI path for one range query (best of three
// runs per phase, like the other harnesses).
func runALI(e *core.Engine, table, col string, lo, hi types.Value) (authMetrics, error) {
	var m authMetrics
	ali := e.CurrentView().AuthIndex(table, col)
	if ali == nil {
		return m, fmt.Errorf("bench: no ALI on %s.%s", table, col)
	}
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		ans := auth.Serve(ali, e.Height(), nil, lo, hi)
		server := time.Since(t0)
		t1 := time.Now()
		if _, _, err := auth.VerifyAnswer(ans, lo, hi); err != nil {
			return m, err
		}
		client := time.Since(t1)
		if r == 0 || server < m.serverTime {
			m.serverTime = server
		}
		if r == 0 || client < m.clientTime {
			m.clientTime = client
		}
		m.voSize = ans.Size()
	}
	return m, nil
}

// runBasic measures the ship-all-blocks baseline (best of three).
func runBasic(e *core.Engine, match func(*types.Transaction) bool) (authMetrics, error) {
	var m authMetrics
	headers := e.Headers()
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		ans := &auth.BasicAnswer{Height: e.Height()}
		for h := uint64(0); h < e.Height(); h++ {
			b, err := e.Block(h)
			if err != nil {
				return m, err
			}
			ans.Blocks = append(ans.Blocks, b)
		}
		server := time.Since(t0)
		t1 := time.Now()
		if _, err := auth.BasicVerify(ans, headers, match); err != nil {
			return m, err
		}
		client := time.Since(t1)
		if r == 0 || server < m.serverTime {
			m.serverTime = server
		}
		if r == 0 || client < m.clientTime {
			m.clientTime = client
		}
		m.voSize = ans.Size()
	}
	return m, nil
}

// authFigure runs the shared sweep and projects one metric per figure.
func authFigure(dir string, scale float64, title, note string,
	pick func(authMetrics) string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"blocks", "ALI-Q2", "ALI-Q4", "basic-Q2", "basic-Q4"},
		Note:   note,
	}
	total := scaled(100_000, scale, 600)
	result := scaled(10_000, scale, 60)
	for _, blocks := range blockSizesFor(scale) {
		e, err := authDataset(filepath.Join(dir, fmt.Sprintf("auth-%d", blocks)), blocks, total, result)
		if err != nil {
			return nil, err
		}
		aliQ2, err := runALI(e, "", "senid", types.Str("org1"), types.Str("org1"))
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		aliQ4, err := runALI(e, "donate", "amount", types.Dec(RangeLo), types.Dec(RangeHi))
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		basicQ2, err := runBasic(e, func(tx *types.Transaction) bool { return tx.SenID == "org1" })
		if err != nil {
			e.Close() //sebdb:ignore-err best-effort cleanup on the error path
			return nil, err
		}
		basicQ4, err := runBasic(e, func(tx *types.Transaction) bool {
			if tx.Tname != "donate" {
				return false
			}
			v := tx.Args[2].Float()
			return v >= RangeLo && v <= RangeHi
		})
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", blocks),
			pick(aliQ2), pick(aliQ4), pick(basicQ2), pick(basicQ4))
	}
	return t, nil
}

// Fig17 — VO size, ALI vs basic.
func Fig17(dir string, scale float64) (*Table, error) {
	return authFigure(dir, scale,
		"Fig. 17 — Authenticated query VO size, ALI vs ship-all-blocks",
		"ALI VO is a small multiple of the result; the baseline ships the whole chain",
		func(m authMetrics) string { return kb(m.voSize) })
}

// Fig18 — server-side query time.
func Fig18(dir string, scale float64) (*Table, error) {
	return authFigure(dir, scale,
		"Fig. 18 — Authenticated query running time at server side",
		"ALI touches only candidate blocks through the index; basic scans everything",
		func(m authMetrics) string { return ms(m.serverTime) })
}

// Fig19 — client-side verification time.
func Fig19(dir string, scale float64) (*Table, error) {
	return authFigure(dir, scale,
		"Fig. 19 — Authenticated query running time at client side",
		"reconstructing a few MB-tree roots beats rebuilding every block's Merkle tree",
		func(m authMetrics) string { return ms(m.clientTime) })
}
