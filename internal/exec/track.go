package exec

import (
	"context"
	"fmt"
	"slices"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/layered"
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
			// The table-level index is keyed by Tname and by SenID (§IV-B:
			// "The index can also be created on SenID"); the SenID one is
			// the first level of the built-in SenID layered index.
			if q.HasOperation {
				blocks.And(c.TableBlocks(q.Operation))
			}
			if q.HasOperator {
				idx := c.Layered("", "senid")
				if idx == nil {
					return nil, st, fmt.Errorf("%w: system senid", ErrNoIndex)
				}
				blocks.And(idx.ValueBlocks(types.Str(q.Operator)))
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
	// the resulting position sets, and read the transactions. Each index
	// is walked once over all the blocks before any is read.
	var senPos, tnPos []blockPositions
	if q.HasOperator {
		senPos = pointPositions(idxSen, blocks, op)
	}
	if q.HasOperation {
		tnPos = pointPositions(idxTn, blocks, tn)
	}
	var out []*types.Transaction
	var ferr error
	var both []uint32
	blocks.ForEach(func(bid int) bool {
		var positions []uint32
		switch {
		case q.HasOperator && q.HasOperation:
			st.IndexProbes += 2
			both = intersectSorted(both[:0], nextPositions(&senPos, bid), nextPositions(&tnPos, bid))
			positions = both
		case q.HasOperator:
			st.IndexProbes++
			positions = nextPositions(&senPos, bid)
		default:
			st.IndexProbes++
			positions = nextPositions(&tnPos, bid)
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

// blockPositions are one block's positions holding a probed key.
type blockPositions struct {
	bid int
	pos []uint32
}

// pointPositions walks idx once over blocks for key and returns each
// matching block's positions, ascending, blocks in ascending order. A
// key's positions come out of the second level in append order, which
// the engine makes ascending; any other order is sorted here.
func pointPositions(idx *layered.Index, blocks *bitmap.Bitmap, key types.Value) []blockPositions {
	var out []blockPositions
	idx.WalkPositions(blocks, key, key, func(bid uint64, pos []uint32) bool {
		if !slices.IsSorted(pos) {
			pos = slices.Clone(pos)
			slices.Sort(pos)
		}
		out = append(out, blockPositions{int(bid), pos})
		return true
	})
	return out
}

// nextPositions pops block bid's positions off the front of *bp, which
// is visited in ascending block order; nil when bid matched nothing.
func nextPositions(bp *[]blockPositions, bid int) []uint32 {
	if len(*bp) == 0 || (*bp)[0].bid != bid {
		return nil
	}
	pos := (*bp)[0].pos
	*bp = (*bp)[1:]
	return pos
}

// intersectSorted appends to dst the positions in both ascending lists,
// ascending.
func intersectSorted(dst, a, b []uint32) []uint32 {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			dst = append(dst, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return dst
}
