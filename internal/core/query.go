package core

import (
	"context"
	"fmt"
	"sort"

	"sebdb/internal/accessctl"
	"sebdb/internal/contract"
	"sebdb/internal/exec"
	"sebdb/internal/obs"
	"sebdb/internal/plan"
	"sebdb/internal/rdbms"
	"sebdb/internal/schema"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]types.Value
}

// Execute parses and runs one SQL-like statement as the configured
// default sender. Placeholders ('?') in INSERT are bound from params.
func (e *Engine) Execute(sql string, params ...types.Value) (*Result, error) {
	return e.ExecuteAs(e.cfg.DefaultSender, sql, params...)
}

// ExecuteAs runs a statement on behalf of the given sender identity.
// Every statement runs under the flight recorder (Config.Recorder):
// sampled statements carry a trace the execution stages report into,
// and slow statements are captured into the slow-query ring whether
// sampled or not. A nil recorder costs one nil check.
func (e *Engine) ExecuteAs(sender, sql string, params ...types.Value) (*Result, error) {
	ctx, stmt := e.cfg.Recorder.Begin(context.Background(), sql)
	_, parseSp := obs.StartSpan(ctx, "parse")
	st, err := sqlparser.Parse(sql)
	parseSp.Finish()
	if err != nil {
		stmt.Finish(err)
		return nil, err
	}
	stmt.SetStage(stmtKind(st))
	res, err := e.executeStmt(ctx, sender, st, params)
	stmt.Finish(err)
	return res, err
}

// stmtKind names a parsed statement's kind for the recorder's per-kind
// stages ("stmt.select", "stmt.insert", ...).
func stmtKind(st sqlparser.Statement) string {
	switch st.(type) {
	case *sqlparser.CreateTable:
		return "create"
	case *sqlparser.Insert:
		return "insert"
	case *sqlparser.Select:
		return "select"
	case *sqlparser.Join:
		return "join"
	case *sqlparser.Trace:
		return "trace"
	case *sqlparser.GetBlock:
		return "getblock"
	case *sqlparser.Explain:
		return "explain"
	case *sqlparser.ShowTraces:
		return "showtraces"
	default:
		return "other"
	}
}

// executeStmt checks access and dispatches one parsed statement. The
// context carries the query trace when the statement runs under
// EXPLAIN ANALYZE; every stage below propagates it.
func (e *Engine) executeStmt(ctx context.Context, sender string, st sqlparser.Statement, params []types.Value) (*Result, error) {
	if err := e.checkAccess(sender, st); err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *sqlparser.CreateTable:
		return e.execCreate(sender, s)
	case *sqlparser.Insert:
		return e.execInsert(sender, s, params)
	case *sqlparser.Select:
		return e.execSelect(ctx, s)
	case *sqlparser.Join:
		return e.execJoin(ctx, s)
	case *sqlparser.Trace:
		return e.execTrace(ctx, s)
	case *sqlparser.GetBlock:
		return e.execGetBlock(ctx, s)
	case *sqlparser.Explain:
		return e.execExplain(ctx, sender, s)
	case *sqlparser.ShowTraces:
		return e.execShowTraces(s)
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", st)
	}
}

// execCreate registers the table locally and emits the schema-sync
// transaction so peers replay the same DDL (§IV-A); see submitDDL.
func (e *Engine) execCreate(sender string, s *sqlparser.CreateTable) (*Result, error) {
	tbl, err := schema.NewTable(s.Name, s.Columns)
	if err != nil {
		return nil, err
	}
	err = e.submitDDL(sender, schema.MetaTable, tbl.EncodeDDL(), "table", tbl.Name,
		func(d chainDefs) (chainDefs, error) { return d.withTable(tbl) },
		func(d chainDefs) chainDefs { d.tables = withoutEntry(d.tables, tbl.Name); return d })
	if err != nil {
		return nil, err
	}
	e.log.Info("table created", "table", tbl.Name, "sender", sender)
	return &Result{Columns: []string{"status"}, Rows: [][]types.Value{{types.Str("created " + tbl.Name)}}}, nil
}

// submitDDL is the one protocol behind CREATE and DeployContract: a
// definition that rides the chain as a meta-transaction. The local
// registration precedes the submit — the issuing node must see its own
// table or contract at once, and the definition replays everywhere else
// when the block propagates — so a failed submit rolls it back; without
// the rollback the node would claim a definition the chain never makes,
// forever diverging from every peer. The one exception: when the block
// committed and only the fsync failed, the transaction is chain state
// and the registration stays; nor is there anything to roll back when
// the registration was an identical re-definition, which added nothing.
// register and unregister derive the definitions with and without this
// one; they are installed under e.mu like every other definition (see
// admit).
func (e *Engine) submitDDL(sender, metaTable string, args []types.Value, what, name string,
	register func(chainDefs) (chainDefs, error), unregister func(chainDefs) chainDefs) error {
	e.mu.Lock()
	defs, err := register(e.defs)
	// A registration adds one entry or, re-defining, none.
	added := len(defs.tables)+len(defs.contracts) != len(e.defs.tables)+len(e.defs.contracts)
	if err == nil {
		e.installDefs(defs, nil)
		e.publishViewLocked()
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	tx := &types.Transaction{Ts: e.nowMicro(), SenID: sender, Tname: metaTable, Args: args}
	e.signFor(tx, sender)
	if err := e.Submit(tx); err != nil {
		if added && !e.txCommitted(tx) {
			e.mu.Lock()
			e.installDefs(unregister(e.defs), nil)
			e.publishViewLocked()
			e.mu.Unlock()
			e.log.Warn(what+" rolled back", what, name, "err", err)
		}
		return err
	}
	return nil
}

func (e *Engine) execInsert(sender string, s *sqlparser.Insert, params []types.Value) (*Result, error) {
	if len(params) != len(s.Params) {
		return nil, fmt.Errorf("core: statement has %d placeholders, got %d params",
			len(s.Params), len(params))
	}
	vals := append([]types.Value(nil), s.Values...)
	for i, pos := range s.Params {
		vals[pos] = params[i]
	}
	tx, err := e.NewTransaction(sender, s.Table, vals)
	if err != nil {
		return nil, err
	}
	if err := e.Submit(tx); err != nil {
		return nil, err
	}
	return &Result{Columns: []string{"status"}, Rows: [][]types.Value{{types.Str("queued")}}}, nil
}

// execSelect plans and runs a single-table query, on or off chain. The
// whole statement — planning, execution, projection — runs against one
// pinned view, so it touches no engine lock and a concurrent commit
// can never shift the height mid-query.
func (e *Engine) execSelect(ctx context.Context, s *sqlparser.Select) (*Result, error) {
	v := e.pinView(ctx)
	onChain := v.HasTable(s.Table.Name)
	switch s.Table.Chain {
	case sqlparser.ChainOn:
		if !onChain {
			return nil, fmt.Errorf("core: no on-chain table %q", s.Table.Name)
		}
	case sqlparser.ChainOff:
		onChain = false
	case sqlparser.ChainDefault:
		if !onChain && !e.offDB.HasTable(s.Table.Name) {
			return nil, fmt.Errorf("core: no such table %q", s.Table.Name)
		}
	}
	if !onChain {
		return e.selectOffChain(s)
	}

	tbl, err := v.Table(s.Table.Name)
	if err != nil {
		return nil, err
	}
	_, planSp := obs.StartSpan(ctx, "plan")
	sp := v.planSelect(tbl, s.Where)
	planSp.SetCounter("blocks", int64(sp.n))
	planSp.SetCounter("table_blocks", int64(sp.k))
	planSp.SetCounter("est_rows", int64(sp.p))
	planSp.Finish()
	var txs []*types.Transaction
	if sp.Method == exec.MethodLayered {
		txs, _, err = exec.SelectProbed(ctx, v, tbl.Name, s.Where, s.Window, sp.probe)
	} else {
		txs, _, err = exec.SelectCtx(ctx, v, tbl.Name, s.Where, s.Window, sp.Method)
	}
	if err != nil {
		return nil, err
	}
	if s.Count {
		return &Result{Columns: []string{"count"},
			Rows: [][]types.Value{{types.Int(int64(len(txs)))}}}, nil
	}
	_, projSp := obs.StartSpan(ctx, "project")
	defer projSp.Finish()
	projSp.SetCounter("rows", int64(len(txs)))
	// ORDER BY sorts on the full tuple before projection, so the sort
	// column need not appear in the select list.
	if s.OrderBy != "" {
		if _, _, err := tbl.ColumnKind(s.OrderBy); err != nil {
			return nil, err
		}
		var serr error
		sort.SliceStable(txs, func(a, b int) bool {
			va, err := tbl.Value(txs[a], s.OrderBy)
			if err != nil {
				serr = err
			}
			vb, err := tbl.Value(txs[b], s.OrderBy)
			if err != nil {
				serr = err
			}
			cmp := types.Compare(va, vb)
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
		if serr != nil {
			return nil, serr
		}
	}
	if s.Limit > 0 && len(txs) > s.Limit {
		txs = txs[:s.Limit]
	}
	return e.projectTxs(tbl, s.Columns, txs)
}

// selectPlan is the access path plan.Choose picks for one on-chain
// SELECT, with the inputs it picked from: the view's height n, the
// table's block count k and the layered estimate p, whose walk probe
// exec.SelectProbed reuses.
type selectPlan struct {
	plan.Choice
	n, k, p int
	probe   *exec.Probe
}

// planSelect is the one planning step SELECT and EXPLAIN share, so
// EXPLAIN reports the path the statement would run.
func (v *View) planSelect(tbl *schema.Table, where []sqlparser.Pred) selectPlan {
	sp := selectPlan{n: v.NumBlocks(), k: v.TableBlocks(tbl.Name).Count()}
	sp.p, sp.probe = v.estimateLayered(tbl, where)
	sp.Choice = plan.Choose(plan.DefaultCostModel(), sp.n, sp.k, sp.p)
	return sp
}

// orderLimitRows sorts full off-chain rows by the named column and
// truncates, before any projection.
func orderLimitRows(rows [][]types.Value, names []string, s *sqlparser.Select) ([][]types.Value, error) {
	if s.OrderBy != "" {
		ci := -1
		for i, c := range names {
			if c == s.OrderBy {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("core: ORDER BY column %q not in table", s.OrderBy)
		}
		sort.SliceStable(rows, func(a, b int) bool {
			cmp := types.Compare(rows[a][ci], rows[b][ci])
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if s.Limit > 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	return rows, nil
}

// selectOffChain evaluates a SELECT against the local RDBMS.
func (e *Engine) selectOffChain(s *sqlparser.Select) (*Result, error) {
	cols, err := e.offDB.Columns(s.Table.Name)
	if err != nil {
		return nil, err
	}
	var preds []rdbms.Pred
	for _, p := range s.Where {
		ci, err := e.offDB.ColIndex(s.Table.Name, p.Col)
		if err != nil {
			return nil, err
		}
		pc := p
		preds = append(preds, func(r rdbms.Row) bool {
			cmp := types.Compare(r[ci], pc.Val)
			switch pc.Op {
			case sqlparser.OpEq:
				return cmp == 0
			case sqlparser.OpNe:
				return cmp != 0
			case sqlparser.OpLt:
				return cmp < 0
			case sqlparser.OpLe:
				return cmp <= 0
			case sqlparser.OpGt:
				return cmp > 0
			case sqlparser.OpGe:
				return cmp >= 0
			case sqlparser.OpBetween:
				return cmp >= 0 && types.Compare(r[ci], pc.Hi) <= 0
			}
			return false
		})
	}
	rows, err := e.offDB.Select(s.Table.Name, preds...)
	if err != nil {
		return nil, err
	}
	if s.Count {
		return &Result{Columns: []string{"count"},
			Rows: [][]types.Value{{types.Int(int64(len(rows)))}}}, nil
	}

	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	rows, err = orderLimitRows(rows, names, s)
	if err != nil {
		return nil, err
	}
	if s.Columns == nil {
		return &Result{Columns: names, Rows: rows}, nil
	}
	idxs := make([]int, len(s.Columns))
	for i, c := range s.Columns {
		ci, err := e.offDB.ColIndex(s.Table.Name, c)
		if err != nil {
			return nil, err
		}
		idxs[i] = ci
	}
	out := make([][]types.Value, len(rows))
	for r, row := range rows {
		pr := make([]types.Value, len(idxs))
		for i, ci := range idxs {
			pr[i] = row[ci]
		}
		out[r] = pr
	}
	return &Result{Columns: s.Columns, Rows: out}, nil
}

// projectTxs renders transactions as result rows for the requested
// columns (all system + application columns for SELECT *).
func (e *Engine) projectTxs(tbl *schema.Table, cols []string, txs []*types.Transaction) (*Result, error) {
	if cols == nil {
		cols = tbl.AllColumnNames()
	}
	res := &Result{Columns: cols, Rows: make([][]types.Value, 0, len(txs))}
	for _, tx := range txs {
		row := make([]types.Value, len(cols))
		for i, c := range cols {
			v, err := tbl.Value(tx, c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// execTrace runs the track-trace operation; the global system-column
// indexes always exist, so the layered path of Algorithm 1 is used. It
// runs against a pinned view like execSelect.
func (e *Engine) execTrace(ctx context.Context, s *sqlparser.Trace) (*Result, error) {
	txs, _, err := exec.TrackCtx(ctx, e.pinView(ctx), s, exec.MethodLayered)
	if err != nil {
		return nil, err
	}
	cols := []string{"tid", "ts", "senid", "tname"}
	res := &Result{Columns: cols, Rows: make([][]types.Value, 0, len(txs))}
	for _, tx := range txs {
		res.Rows = append(res.Rows, []types.Value{
			types.Int(int64(tx.Tid)), types.Time(tx.Ts), types.Str(tx.SenID), types.Str(tx.Tname),
		})
	}
	return res, nil
}

// execJoin dispatches on-chain vs on-off-chain joins, both sides over
// one pinned view.
func (e *Engine) execJoin(ctx context.Context, s *sqlparser.Join) (*Result, error) {
	v := e.pinView(ctx)
	leftOn := s.Left.Chain != sqlparser.ChainOff && v.HasTable(s.Left.Name)
	rightOn := s.Right.Chain != sqlparser.ChainOff && v.HasTable(s.Right.Name)

	switch {
	case leftOn && rightOn:
		m := exec.MethodBitmap
		if v.Layered(s.Left.Name, s.LeftCol) != nil && v.Layered(s.Right.Name, s.RightCol) != nil {
			m = exec.MethodLayered
		}
		rows, _, err := exec.OnChainJoinCtx(ctx, v, s.Left.Name, s.Right.Name, s.LeftCol, s.RightCol, s.Window, m)
		if err != nil {
			return nil, err
		}
		return e.projectJoin(v, s, rows)
	case leftOn && !rightOn:
		m := exec.MethodBitmap
		if v.Layered(s.Left.Name, s.LeftCol) != nil {
			m = exec.MethodLayered
		}
		rows, _, err := exec.OnOffJoinCtx(ctx, v, e.offDB, s.Left.Name, s.LeftCol, s.Right.Name, s.RightCol, s.Window, m)
		if err != nil {
			return nil, err
		}
		return e.projectOnOff(v, s.Left.Name, s.Right.Name, rows)
	case !leftOn && rightOn:
		// Normalise to on-chain ⋈ off-chain.
		flipped := &sqlparser.Join{
			Left: s.Right, Right: s.Left,
			LeftCol: s.RightCol, RightCol: s.LeftCol,
			Window: s.Window,
		}
		return e.execJoin(ctx, flipped)
	default:
		return nil, fmt.Errorf("core: join between two off-chain tables belongs in the RDBMS")
	}
}

func (e *Engine) projectJoin(v *View, s *sqlparser.Join, rows []exec.JoinRow) (*Result, error) {
	lt, err := v.Table(s.Left.Name)
	if err != nil {
		return nil, err
	}
	rt, err := v.Table(s.Right.Name)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, c := range lt.AllColumnNames() {
		cols = append(cols, lt.Name+"."+c)
	}
	for _, c := range rt.AllColumnNames() {
		cols = append(cols, rt.Name+"."+c)
	}
	res := &Result{Columns: cols, Rows: make([][]types.Value, 0, len(rows))}
	for _, jr := range rows {
		row := make([]types.Value, 0, len(cols))
		for _, c := range lt.AllColumnNames() {
			v, err := lt.Value(jr.Left, c)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		for _, c := range rt.AllColumnNames() {
			v, err := rt.Value(jr.Right, c)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (e *Engine) projectOnOff(v *View, onName, offName string, rows []exec.OnOffRow) (*Result, error) {
	tbl, err := v.Table(onName)
	if err != nil {
		return nil, err
	}
	offCols, err := e.offDB.Columns(offName)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, c := range tbl.AllColumnNames() {
		cols = append(cols, onName+"."+c)
	}
	for _, c := range offCols {
		cols = append(cols, offName+"."+c.Name)
	}
	res := &Result{Columns: cols, Rows: make([][]types.Value, 0, len(rows))}
	for _, r := range rows {
		row := make([]types.Value, 0, len(cols))
		for _, c := range tbl.AllColumnNames() {
			v, err := tbl.Value(r.Tx, c)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		row = append(row, r.Row...)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// execGetBlock implements GET BLOCK ID|TID|TS=? (Q7) through the
// pinned view's block-level index; every field it prints lives in the
// block header, which the store keeps in memory.
func (e *Engine) execGetBlock(ctx context.Context, s *sqlparser.GetBlock) (*Result, error) {
	// Block ids and Tids are unsigned; a negative literal would wrap to
	// a huge id under the uint64 conversion instead of failing.
	if s.Val < 0 && s.By != sqlparser.ByTs {
		return nil, fmt.Errorf("core: GET BLOCK ID/TID must be non-negative, got %d", s.Val)
	}
	v := e.pinView(ctx)
	bidx := v.BlockIdx()
	var bid uint64
	var ok bool
	switch s.By {
	case sqlparser.ByID:
		bid, ok = uint64(s.Val), bidx.ByBlockID(uint64(s.Val))
	case sqlparser.ByTid:
		bid, ok = bidx.ByTid(uint64(s.Val))
	case sqlparser.ByTs:
		bid, ok = bidx.ByTime(s.Val)
	}
	if !ok {
		return nil, fmt.Errorf("core: no block for %v", s.Val)
	}
	h, err := v.Header(bid)
	if err != nil {
		return nil, err
	}
	hash := h.Hash()
	prev := h.PrevHash
	return &Result{
		Columns: []string{"height", "timestamp", "txcount", "firsttid", "hash", "prevhash", "signer"},
		Rows: [][]types.Value{{
			types.Int(int64(h.Height)),
			types.Time(h.Timestamp),
			types.Int(int64(h.TxCount)),
			types.Int(int64(h.FirstTid)),
			types.Str(fmt.Sprintf("%x", hash[:8])),
			types.Str(fmt.Sprintf("%x", prev[:8])),
			types.Str(h.Signer),
		}},
	}, nil
}

// checkAccess enforces the channel permissions of the application
// layer before any statement executes.
func (e *Engine) checkAccess(sender string, st sqlparser.Statement) error {
	switch s := st.(type) {
	case *sqlparser.CreateTable:
		return e.acl.Check(sender, s.Name, accessctl.OpWrite)
	case *sqlparser.Insert:
		return e.acl.Check(sender, s.Table, accessctl.OpWrite)
	case *sqlparser.Select:
		return e.acl.Check(sender, s.Table.Name, accessctl.OpRead)
	case *sqlparser.Join:
		return e.acl.CheckAll(sender, []string{s.Left.Name, s.Right.Name}, accessctl.OpRead)
	case *sqlparser.Explain:
		// Explaining a statement requires the same permissions as
		// running it (ANALYZE does run it).
		return e.checkAccess(sender, s.Stmt)
	case *sqlparser.Trace, *sqlparser.GetBlock:
		// Tracking and block lookups span all tables; restrict to
		// participants that can read everything they touch. Tables in
		// private channels are filtered implicitly because their rows
		// only reach nodes of that channel; node-local enforcement stays
		// at the statement level here.
		return nil
	case *sqlparser.ShowTraces:
		// Node-local introspection over the flight recorder; no table
		// data is exposed beyond what the recorded statements returned.
		return nil
	default:
		return nil
	}
}

// DeployContract validates a smart contract, registers it locally and
// submits its deployment transaction; see submitDDL.
func (e *Engine) DeployContract(sender, name string, statements []string) error {
	c, err := contract.Parse(name, statements)
	if err != nil {
		return err
	}
	err = e.submitDDL(sender, contract.MetaTable, c.EncodeDeploy(), "contract", c.Name,
		func(d chainDefs) (chainDefs, error) { return d.withContract(c) },
		func(d chainDefs) chainDefs { d.contracts = withoutEntry(d.contracts, c.Name); return d })
	if err != nil {
		return err
	}
	e.log.Info("contract deployed", "contract", c.Name, "sender", sender)
	return nil
}

// InvokeContract runs a contract deployed as of the current view as
// sender; each embedded statement goes through the normal SQL path
// including access control.
func (e *Engine) InvokeContract(sender, name string, args ...types.Value) (*Result, error) {
	c, err := e.CurrentView().Contract(name)
	if err != nil {
		return nil, err
	}
	res, err := c.Invoke(func(s, sql string) ([]string, [][]types.Value, error) {
		r, err := e.ExecuteAs(s, sql)
		if err != nil {
			return nil, nil, err
		}
		return r.Columns, r.Rows, nil
	}, sender, args...)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: res.Columns, Rows: res.Rows}, nil
}
