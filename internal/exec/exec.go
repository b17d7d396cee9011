// Package exec implements SEBDB's query processing layer (paper §V):
// single-table selection under the three access methods (full scan,
// table-level bitmap, layered index), the track-trace operation
// (Algorithm 1), the on-chain join (Algorithm 2), and the on-off-chain
// join (Algorithm 3). Each operator works against the Chain interface
// so it can run over the live engine, a cached view, or a test fixture.
package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/blockindex"
	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/parallel"
	"sebdb/internal/schema"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// Chain is the read surface the executors need. The engine's
// height-pinned read view (core.View) implements it, so queries never
// contend with the commit pipeline's engine lock. Layered with an empty
// table name resolves the global system-column indexes (SenID, Tname)
// that span every table.
type Chain interface {
	// NumBlocks returns the chain height (number of blocks).
	NumBlocks() int
	// FilterBlock reads a whole block, possibly from cache, and returns
	// in chain order the transactions keep accepts plus the number the
	// block holds. keep may be handed a scratch transaction that aliases
	// the read buffer: it must not retain its argument.
	FilterBlock(bid uint64, keep func(*types.Transaction) (bool, error)) ([]*types.Transaction, int, error)
	// Tx reads one transaction by position, possibly from cache.
	Tx(bid uint64, pos uint32) (*types.Transaction, error)
	// BlockIdx returns the block-level index over the chain prefix the
	// reader sees.
	BlockIdx() blockindex.Index
	// TableBlocks returns the table-level bitmap for a table name.
	TableBlocks(name string) *bitmap.Bitmap
	// Layered returns the layered index on table.col, or nil when the
	// column is not indexed. table=="" addresses the global system
	// indexes keyed by column ("senid", "tname").
	Layered(table, col string) *layered.Index
	// Table resolves a table schema.
	Table(name string) (*schema.Table, error)
}

// Method selects the access path, mirroring the paper's SU/BU/LU runs.
type Method int

const (
	// MethodScan reads every block (Equation 1).
	MethodScan Method = iota
	// MethodBitmap reads only blocks flagged by the table-level bitmap
	// index (Equation 2).
	MethodBitmap
	// MethodLayered uses the layered index: first-level filtering plus
	// per-block second-level probes (Equation 3).
	MethodLayered
)

// String names the method like the paper's figure legends.
func (m Method) String() string {
	switch m {
	case MethodScan:
		return "scan"
	case MethodBitmap:
		return "bitmap"
	case MethodLayered:
		return "layered"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Stats counts the physical work an operator performed; tests use it to
// check the cost model's ordering (Equations 1-3) empirically.
type Stats struct {
	// BlocksRead is the number of block bodies fetched.
	BlocksRead int
	// TxsExamined is the number of transactions inspected.
	TxsExamined int
	// IndexProbes is the number of second-level index probes.
	IndexProbes int
}

// ErrNoIndex is returned when MethodLayered is requested but the needed
// layered index does not exist.
var ErrNoIndex = errors.New("exec: no layered index on requested column")

// windowBlocks computes Algorithms 1-3's first bitmap B: blocks within
// the time window, or all blocks when win is nil.
func windowBlocks(c Chain, win *sqlparser.Window) *bitmap.Bitmap {
	if win == nil {
		return c.BlockIdx().AllBlocks()
	}
	return c.BlockIdx().TimeWindow(win.Start, win.End)
}

// inWindow checks the transaction-level time filter.
func inWindow(tx *types.Transaction, win *sqlparser.Window) bool {
	if win == nil {
		return true
	}
	if tx.Ts < win.Start {
		return false
	}
	return win.End == 0 || tx.Ts <= win.End
}

// evalPred evaluates one predicate against a transaction of table tbl.
func evalPred(tbl *schema.Table, tx *types.Transaction, p sqlparser.Pred) (bool, error) {
	v, err := tbl.Value(tx, p.Col)
	if err != nil {
		return false, err
	}
	cmp := types.Compare(v, p.Val)
	switch p.Op {
	case sqlparser.OpEq:
		return cmp == 0, nil
	case sqlparser.OpNe:
		return cmp != 0, nil
	case sqlparser.OpLt:
		return cmp < 0, nil
	case sqlparser.OpLe:
		return cmp <= 0, nil
	case sqlparser.OpGt:
		return cmp > 0, nil
	case sqlparser.OpGe:
		return cmp >= 0, nil
	case sqlparser.OpBetween:
		return cmp >= 0 && types.Compare(v, p.Hi) <= 0, nil
	default:
		return false, fmt.Errorf("exec: unsupported operator %v", p.Op)
	}
}

// matches evaluates the conjunction of predicates plus the membership
// and window filters.
func matches(tbl *schema.Table, tx *types.Transaction, preds []sqlparser.Pred, win *sqlparser.Window) (bool, error) {
	if tx.Tname != tbl.Name || !inWindow(tx, win) {
		return false, nil
	}
	for _, p := range preds {
		ok, err := evalPred(tbl, tx, p)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// predBounds extracts the [lo, hi] range a predicate constrains its
// column to, for driving the layered index.
func predBounds(p sqlparser.Pred) (lo, hi types.Value, exact bool) {
	switch p.Op {
	case sqlparser.OpEq:
		return p.Val, p.Val, true
	case sqlparser.OpBetween:
		return p.Val, p.Hi, true
	case sqlparser.OpGe, sqlparser.OpGt:
		return p.Val, posInf, false
	case sqlparser.OpLe, sqlparser.OpLt:
		return negInf, p.Val, false
	default:
		return negInf, posInf, false
	}
}

// negInf and posInf bracket the total order of types.Compare.
var (
	negInf = types.Null
	posInf = types.Value{Kind: types.KindTimestamp + 100}
)

// Select executes SELECT ... FROM table WHERE preds [WINDOW win] with
// the given access method, returning matching transactions in chain
// order.
func Select(c Chain, table string, preds []sqlparser.Pred, win *sqlparser.Window, m Method) ([]*types.Transaction, Stats, error) {
	return SelectCtx(context.Background(), c, table, preds, win, m)
}

// SelectCtx is Select with trace support: when ctx carries a query
// trace (EXPLAIN ANALYZE) the run is recorded as an
// "exec.select.<method>" stage carrying its Stats; either way the
// Stats fold into the registry's exec counters.
func SelectCtx(ctx context.Context, c Chain, table string, preds []sqlparser.Pred, win *sqlparser.Window, m Method) ([]*types.Transaction, Stats, error) {
	return selectTraced(ctx, c, table, preds, win, m, nil)
}

// Probe is one walk of a layered index's second level for the bounds of
// preds[Drive]: the first-level candidate blocks it covered, and the
// ones among them whose second level returned a position, each with its
// positions sorted into chain order. The planner takes it to count a
// statement's matches before Equations 1-3 can price the layered
// method, and hands it to the operator, which would otherwise make the
// same walk again.
type Probe struct {
	Index *layered.Index
	// Drive is the position in the statement's predicate list of the
	// predicate whose bounds were probed.
	Drive int
	// Cand is the set of first-level candidate blocks the walk covered.
	// The first level is coarser than the second, so most may have no
	// match.
	Cand *bitmap.Bitmap
	// Blocks are the candidate blocks with at least one match, ascending;
	// block Blocks[i] matched at positions Pos[Ends[i-1]:Ends[i]] (from 0
	// for i == 0).
	Blocks []uint64
	Pos    []uint32
	Ends   []int
}

// positions returns the matched positions of candidate block i.
func (p *Probe) positions(i int) []uint32 {
	start := 0
	if i > 0 {
		start = p.Ends[i-1]
	}
	return p.Pos[start:p.Ends[i]]
}

// walk is the one walk of the second level: over the first-level
// candidates of idx for [lo, hi] inside within, in ascending order, it
// collects each block's matched positions sorted into chain order (the
// second level returns them in key order). It stops once it holds limit
// positions, when limit > 0, cutting the last block's short.
func walk(idx *layered.Index, lo, hi types.Value, within *bitmap.Bitmap, limit int) *Probe {
	p := &Probe{Index: idx, Cand: idx.CandidateBlocks(lo, hi).And(within)}
	idx.WalkPositions(p.Cand, lo, hi, func(bid uint64, ps []uint32) bool {
		if limit > 0 {
			ps = ps[:min(len(ps), limit-len(p.Pos))]
		}
		start := len(p.Pos)
		p.Pos = append(p.Pos, ps...)
		slices.Sort(p.Pos[start:])
		p.Blocks = append(p.Blocks, bid)
		p.Ends = append(p.Ends, len(p.Pos))
		return limit <= 0 || len(p.Pos) < limit
	})
	return p
}

// ProbeLayered is the planner's side of the hand-off. It walks the
// second level for the predicate the layered operator drives, inside
// c's height, and returns the number of matches p of Equation 3 with
// the walk as a probe for SelectProbed. p is -1, with no probe, when no
// indexed predicate has exact bounds to count; the walk stops at limit
// matches, and then p is limit and no probe is kept.
func ProbeLayered(c Chain, tbl *schema.Table, preds []sqlparser.Pred, limit int) (int, *Probe) {
	idx, i := pickLayered(c, tbl, preds)
	if idx == nil {
		return -1, nil
	}
	lo, hi, exact := predBounds(preds[i])
	if !exact {
		return -1, nil
	}
	p := walk(idx, lo, hi, c.BlockIdx().AllBlocks(), limit)
	if len(p.Pos) >= limit {
		return len(p.Pos), nil
	}
	p.Drive = i
	return len(p.Pos), p
}

// SelectProbed is SelectCtx with MethodLayered, walking the second
// level through probe instead of a second time. The probe is used only
// if it was taken on the index and predicate the operator itself picks;
// rows, order and Stats equal SelectCtx's either way.
func SelectProbed(ctx context.Context, c Chain, table string, preds []sqlparser.Pred, win *sqlparser.Window, probe *Probe) ([]*types.Transaction, Stats, error) {
	return selectTraced(ctx, c, table, preds, win, MethodLayered, probe)
}

func selectTraced(ctx context.Context, c Chain, table string, preds []sqlparser.Pred, win *sqlparser.Window, m Method, probe *Probe) ([]*types.Transaction, Stats, error) {
	_, sp := obs.StartSpan(ctx, "exec.select."+m.String())
	out, st, err := selectImpl(c, table, preds, win, m, probe)
	finishStats(sp, st)
	recordStats(c, "select", m, st)
	return out, st, err
}

func selectImpl(c Chain, table string, preds []sqlparser.Pred, win *sqlparser.Window, m Method, probe *Probe) ([]*types.Transaction, Stats, error) {
	var st Stats
	tbl, err := c.Table(table)
	if err != nil {
		return nil, st, err
	}
	blocks := windowBlocks(c, win)

	switch m {
	case MethodScan:
		// Equation 1: every block in the window is read.
	case MethodBitmap:
		blocks.And(c.TableBlocks(tbl.Name)) // Equation 2
	case MethodLayered:
		idx, drive := pickLayered(c, tbl, preds)
		if idx == nil {
			return nil, st, fmt.Errorf("%w: table %q", ErrNoIndex, table)
		}
		if probe != nil && (probe.Index != idx || probe.Drive != drive) {
			probe = nil
		}
		return layeredSelect(c, tbl, idx, drive, preds, win, blocks, probe)
	default:
		return nil, st, fmt.Errorf("exec: unknown method %v", m)
	}

	// Fan block fetch + predicate evaluation across the worker pool and
	// merge per-block results back in chain order; Stats are summed in
	// the same order, so they match a sequential run exactly. Each block
	// is filtered before it is built: only matching rows are decoded.
	ids := blockIDs(blocks)
	var out []*types.Transaction
	err = parallel.Ordered(workersOf(c), len(ids),
		func(i int) (blockMatches, error) {
			txs, n, err := c.FilterBlock(ids[i], func(tx *types.Transaction) (bool, error) {
				return matches(tbl, tx, preds, win)
			})
			if err != nil {
				return blockMatches{}, err
			}
			return blockMatches{txs: txs, st: Stats{BlocksRead: 1, TxsExamined: n}}, nil
		},
		func(_ int, p blockMatches) error {
			out = append(out, p.txs...)
			st.add(p.st)
			return nil
		})
	return out, st, err
}

// blockMatches carries one block's matching transactions and the
// physical work spent finding them through the parallel merge.
type blockMatches struct {
	txs []*types.Transaction
	st  Stats
}

// add accumulates another block's counters.
func (s *Stats) add(o Stats) {
	s.BlocksRead += o.BlocksRead
	s.TxsExamined += o.TxsExamined
	s.IndexProbes += o.IndexProbes
}

// pickLayered is the one rule that chooses the layered index, and the
// position of the predicate that drives it, for both the planner
// (ProbeLayered) and the operator: the first predicate on an indexed
// column with exact bounds (= or BETWEEN), else the first predicate on
// an indexed column. idx is nil when no predicate's column is indexed.
func pickLayered(c Chain, tbl *schema.Table, preds []sqlparser.Pred) (idx *layered.Index, drive int) {
	drive = -1
	for i := range preds {
		x := c.Layered(tbl.Name, preds[i].Col)
		if x == nil {
			continue
		}
		if _, _, exact := predBounds(preds[i]); exact {
			return x, i
		}
		if idx == nil {
			idx, drive = x, i
		}
	}
	return idx, drive
}

// layeredSelect is the layered-index access path: first-level filter to
// candidate blocks, second-level walk, then residual predicate
// evaluation on the fetched transactions. A probe taken on idx and drive
// ahead of time stands in for the walk. Every candidate block inside
// the window counts as one index probe, but only the blocks with a
// match fan across the worker pool, each reading its positions in chain
// order (Equation 3's p tuple reads and nothing more).
func layeredSelect(c Chain, tbl *schema.Table, idx *layered.Index, drive int,
	preds []sqlparser.Pred, win *sqlparser.Window, blocks *bitmap.Bitmap, probe *Probe) ([]*types.Transaction, Stats, error) {
	if probe == nil {
		lo, hi, _ := predBounds(preds[drive])
		probe = walk(idx, lo, hi, blocks, 0)
	}
	st := Stats{IndexProbes: probe.Cand.Clone().And(blocks).Count()}
	var matched []int // the probe's matched blocks inside the window
	for i, bid := range probe.Blocks {
		if blocks.Get(int(bid)) {
			matched = append(matched, i)
		}
	}

	var out []*types.Transaction
	err := parallel.Ordered(workersOf(c), len(matched),
		func(k int) (blockMatches, error) {
			i := matched[k]
			var p blockMatches
			for _, pos := range probe.positions(i) {
				tx, err := c.Tx(probe.Blocks[i], pos)
				if err != nil {
					return blockMatches{}, err
				}
				p.st.TxsExamined++
				ok, err := matches(tbl, tx, preds, win)
				if err != nil {
					return blockMatches{}, err
				}
				if ok {
					p.txs = append(p.txs, tx)
				}
			}
			return p, nil
		},
		func(_ int, p blockMatches) error {
			out = append(out, p.txs...)
			st.add(p.st)
			return nil
		})
	return out, st, err
}
