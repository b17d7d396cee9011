package exec

import (
	"context"
	"fmt"

	"sebdb/internal/obs"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// Track implements the track-trace operation (paper §V-A, Algorithm 1):
// given an optional operator (SenID), an optional operation (Tname) and
// a time window, return every matching transaction across all tables.
//
// MethodLayered follows Algorithm 1 exactly: the block index supplies
// the window bitmap B, the first levels of the global SenID/Tname
// layered indexes supply B' and B”, candidate blocks are B & B' & B”,
// and the second levels are probed for the positions, intersecting
// the two position sets when tracking from both dimensions.
func Track(c Chain, q *sqlparser.Trace, m Method) ([]*types.Transaction, Stats, error) {
	return TrackCtx(context.Background(), c, q, m)
}

// TrackCtx is Track with trace support: an active query trace records
// the run as an "exec.track" stage; the Stats always fold into the
// registry's exec counters.
func TrackCtx(ctx context.Context, c Chain, q *sqlparser.Trace, m Method) ([]*types.Transaction, Stats, error) {
	_, sp := obs.StartSpan(ctx, "exec.track")
	out, st, err := trackImpl(c, q, m)
	finishStats(sp, st)
	recordStats(c, "track", m, st)
	return out, st, err
}

func trackImpl(c Chain, q *sqlparser.Trace, m Method) ([]*types.Transaction, Stats, error) {
	var st Stats
	if !q.HasOperator && !q.HasOperation {
		return nil, st, fmt.Errorf("exec: trace needs operator and/or operation")
	}

	switch m {
	case MethodScan, MethodBitmap:
		blocks := windowBlocks(c, q.Window)
		if m == MethodBitmap {
			// The table-level index can be keyed by Tname and by SenID
			// (§IV-B: "The index can also be created on SenID").
			if q.HasOperation {
				blocks.And(c.TableBlocks(q.Operation))
			}
			if q.HasOperator {
				blocks.And(c.TableBlocks("senid:" + q.Operator))
			}
		}
		keep := func(tx *types.Transaction) (bool, error) { return trackMatch(tx, q), nil }
		var out []*types.Transaction
		var ferr error
		blocks.ForEach(func(bid int) bool {
			txs, n, err := c.FilterBlock(uint64(bid), keep)
			if err != nil {
				ferr = err
				return false
			}
			st.BlocksRead++
			st.TxsExamined += n
			out = append(out, txs...)
			return true
		})
		return out, st, ferr

	case MethodLayered:
		return trackLayered(c, q, &st)
	default:
		return nil, st, fmt.Errorf("exec: unknown method %v", m)
	}
}

func trackMatch(tx *types.Transaction, q *sqlparser.Trace) bool {
	if q.HasOperator && tx.SenID != q.Operator {
		return false
	}
	if q.HasOperation && tx.Tname != q.Operation {
		return false
	}
	return inWindow(tx, q.Window)
}

func trackLayered(c Chain, q *sqlparser.Trace, st *Stats) ([]*types.Transaction, Stats, error) {
	idxSen := c.Layered("", "senid")
	idxTn := c.Layered("", "tname")
	if (q.HasOperator && idxSen == nil) || (q.HasOperation && idxTn == nil) {
		return nil, *st, fmt.Errorf("%w: system senid/tname", ErrNoIndex)
	}

	// Lines 1-4: B & B' & B''.
	op, tn := types.Str(q.Operator), types.Str(q.Operation)
	blocks := windowBlocks(c, q.Window)
	if q.HasOperator {
		blocks.And(idxSen.ValueBlocks(op))
	}
	if q.HasOperation {
		blocks.And(idxTn.ValueBlocks(tn))
	}

	// Lines 6-13: per block, probe the second-level indexes, intersect
	// the resulting position sets, and read the transactions.
	var out []*types.Transaction
	var ferr error
	blocks.ForEach(func(bid int) bool {
		var positions []uint32
		switch {
		case q.HasOperator && q.HasOperation:
			st.IndexProbes += 2
			po := map[uint32]bool{}
			for _, pos := range idxSen.BlockPositions(uint64(bid), op, op) {
				po[pos] = true
			}
			for _, pos := range idxTn.BlockPositions(uint64(bid), tn, tn) {
				if po[pos] {
					positions = append(positions, pos)
				}
			}
		case q.HasOperator:
			st.IndexProbes++
			positions = idxSen.BlockPositions(uint64(bid), op, op)
		default:
			st.IndexProbes++
			positions = idxTn.BlockPositions(uint64(bid), tn, tn)
		}
		for _, pos := range positions {
			tx, err := c.Tx(uint64(bid), pos)
			if err != nil {
				ferr = err
				return false
			}
			st.TxsExamined++
			if inWindow(tx, q.Window) {
				out = append(out, tx)
			}
		}
		return true
	})
	return out, *st, ferr
}
