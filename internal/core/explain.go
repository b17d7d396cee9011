package core

import (
	"context"
	"fmt"
	"strings"

	"sebdb/internal/obs"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// explainSelect reports the plan.Choose decision for one on-chain
// SELECT without executing it, planning against the current view just
// as execSelect would.
func (e *Engine) explainSelect(s *sqlparser.Select) (*Result, error) {
	v := e.CurrentView()
	if !v.HasTable(s.Table.Name) || s.Table.Chain == sqlparser.ChainOff {
		return nil, fmt.Errorf("core: EXPLAIN supports on-chain tables")
	}
	tbl, err := v.Table(s.Table.Name)
	if err != nil {
		return nil, err
	}
	sp := v.planSelect(tbl, s.Where)
	cost := func(c float64) types.Value {
		if c < 0 {
			return types.Null
		}
		return types.Dec(c)
	}
	return &Result{
		Columns: []string{"method", "blocks", "table_blocks", "est_rows",
			"cost_scan", "cost_bitmap", "cost_layered"},
		Rows: [][]types.Value{{
			types.Str(sp.Method.String()),
			types.Int(int64(sp.n)),
			types.Int(int64(sp.k)),
			types.Int(int64(sp.p)),
			cost(sp.CostScan),
			cost(sp.CostBitmap),
			cost(sp.CostLayered),
		}},
	}, nil
}

// execExplain handles EXPLAIN [ANALYZE] <stmt>. Plain EXPLAIN reports
// the planner decision; ANALYZE executes the statement under a query
// trace and renders the resulting span tree — one row per stage with
// its wall time (registry clock) and physical counters.
func (e *Engine) execExplain(ctx context.Context, sender string, s *sqlparser.Explain) (*Result, error) {
	if !s.Analyze {
		sel, ok := s.Stmt.(*sqlparser.Select)
		if !ok {
			return nil, fmt.Errorf("core: EXPLAIN supports single-table SELECT, got %T (EXPLAIN ANALYZE runs any read statement)", s.Stmt)
		}
		return e.explainSelect(sel)
	}
	switch s.Stmt.(type) {
	case *sqlparser.Select, *sqlparser.Trace, *sqlparser.Join, *sqlparser.GetBlock:
	default:
		return nil, fmt.Errorf("core: EXPLAIN ANALYZE supports read statements, got %T", s.Stmt)
	}
	tctx, root := obs.NewTrace(ctx, e.cfg.Obs, "query")
	// Re-parse the statement text inside the trace so the parse stage
	// carries a real wall time; the result replaces the pre-parsed AST.
	_, psp := obs.StartSpan(tctx, "parse")
	st, err := sqlparser.Parse(s.Src)
	psp.Finish()
	if err != nil {
		return nil, err
	}
	_, err = e.executeStmt(tctx, sender, st, nil)
	root.Finish()
	if err != nil {
		return nil, err
	}
	return renderTrace(root), nil
}

// spanCells renders one span's shared trace columns — the indented
// stage name, duration and the well-known exec counters — returning the
// remaining counters as "name=value" detail pairs. renderTrace (EXPLAIN
// ANALYZE, ExplainRecovery) and execShowTraces both build on it.
func spanCells(sp *obs.Span, depth int) (cells []types.Value, detail []string) {
	br, te, ip := types.Null, types.Null, types.Null
	for _, c := range sp.Counters() {
		switch c.Name {
		case "blocks_read":
			br = types.Int(c.Value)
		case "txs_examined":
			te = types.Int(c.Value)
		case "index_probes":
			ip = types.Int(c.Value)
		default:
			detail = append(detail, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
	}
	return []types.Value{
		types.Str(strings.Repeat("  ", depth) + sp.Name()),
		types.Int(sp.DurationMicros()),
		br, te, ip,
	}, detail
}

// renderTrace flattens a finished span tree depth-first into result
// rows. The well-known exec counters get their own columns; everything
// else lands in detail as "name=value" pairs.
func renderTrace(root *obs.Span) *Result {
	res := &Result{Columns: []string{
		"stage", "micros", "blocks_read", "txs_examined", "index_probes", "detail"}}
	var walk func(sp *obs.Span, depth int)
	walk = func(sp *obs.Span, depth int) {
		cells, rest := spanCells(sp, depth)
		res.Rows = append(res.Rows, append(cells, types.Str(strings.Join(rest, " "))))
		for _, ch := range sp.Children() {
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
	return res
}
