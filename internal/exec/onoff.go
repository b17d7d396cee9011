package exec

import (
	"context"
	"fmt"
	"sort"

	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/rdbms"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// OnOffJoin implements the on-off-chain join (paper §V-C, Algorithm 3):
// join on-chain table r (column rCol) with off-chain table s (column
// sCol) held by the local RDBMS.
//
//   - MethodScan: hash join; every block in the window is read.
//   - MethodBitmap: hash join over blocks flagged for r by the
//     table-level bitmap index.
//   - MethodLayered: Algorithm 3 — the off-chain side's [min, max]
//     (continuous) or distinct values (discrete) filter candidate blocks
//     through r's layered index first level; each surviving block is
//     sort-merge joined against the sorted off-chain rows using the
//     second-level index.
func OnOffJoin(c Chain, db *rdbms.DB, r, rCol, s, sCol string,
	win *sqlparser.Window, m Method) ([]OnOffRow, Stats, error) {
	return OnOffJoinCtx(context.Background(), c, db, r, rCol, s, sCol, win, m)
}

// OnOffJoinCtx is OnOffJoin with trace support ("exec.join.onoff"
// stage); the Stats always fold into the registry's exec counters.
func OnOffJoinCtx(ctx context.Context, c Chain, db *rdbms.DB, r, rCol, s, sCol string,
	win *sqlparser.Window, m Method) ([]OnOffRow, Stats, error) {
	_, sp := obs.StartSpan(ctx, "exec.join.onoff")
	out, st, err := onOffJoinImpl(c, db, r, rCol, s, sCol, win, m)
	finishStats(sp, st)
	recordStats(c, "join", m, st)
	return out, st, err
}

func onOffJoinImpl(c Chain, db *rdbms.DB, r, rCol, s, sCol string,
	win *sqlparser.Window, m Method) ([]OnOffRow, Stats, error) {
	var st Stats
	rt, err := c.Table(r)
	if err != nil {
		return nil, st, err
	}
	sci, err := db.ColIndex(s, sCol)
	if err != nil {
		return nil, st, err
	}

	switch m {
	case MethodScan, MethodBitmap:
		blocks := windowBlocks(c, win)
		if m == MethodBitmap {
			blocks.And(c.TableBlocks(rt.Name))
		}
		sRows, err := db.Select(s)
		if err != nil {
			return nil, st, err
		}
		ht := make(map[types.Value][]rdbms.Row, len(sRows))
		for _, row := range sRows {
			k := layered.Key(row[sci])
			ht[k] = append(ht[k], row)
		}
		rRows, err := collectKeyed(c, rt, rCol, blocks, win, &st)
		if err != nil {
			return nil, st, err
		}
		var out []OnOffRow
		for _, kr := range rRows {
			for _, row := range ht[layered.Key(kr.key)] {
				out = append(out, OnOffRow{Tx: kr.tx, Row: row})
			}
		}
		return out, st, nil

	case MethodLayered:
		return onOffJoinLayered(c, db, rt.Name, rCol, s, sCol, sci, win, &st)
	default:
		return nil, st, fmt.Errorf("exec: unknown method %v", m)
	}
}

func onOffJoinLayered(c Chain, db *rdbms.DB, r, rCol, s, sCol string, sci int,
	win *sqlparser.Window, st *Stats) ([]OnOffRow, Stats, error) {
	ir := c.Layered(r, rCol)
	if ir == nil {
		return nil, *st, fmt.Errorf("%w: %s.%s", ErrNoIndex, r, rCol)
	}

	// Lines 2, 5-7: window bitmap & first level of I_r.
	window := windowBlocks(c, win)
	cand := ir.AnyBlocks().And(window)

	// The off-chain side arrives sorted on the join attribute (§V-C:
	// "query results from off-chain data are sorted on join attribute").
	sRows, err := db.SortedBy(s, sCol)
	if err != nil {
		return nil, *st, err
	}
	if len(sRows) == 0 {
		return nil, *st, nil
	}

	if ir.Continuous() {
		// Lines 3-4, 9: filter blocks by (s_min, s_max).
		sMin, sMax := sRows[0][sci], sRows[len(sRows)-1][sci]
		cand.And(ir.CandidateBlocks(sMin, sMax))
	} else {
		// Discrete path: OR the first-level bitmaps of the off-chain
		// side's distinct join values.
		distinct, err := db.Distinct(s, sCol)
		if err != nil {
			return nil, *st, err
		}
		union := ir.ValueBlocks(distinct[0])
		for _, v := range distinct[1:] {
			union.Or(ir.ValueBlocks(v))
		}
		cand.And(union)
	}

	// Lines 8-13: sort-merge each surviving block against s.
	var out []OnOffRow
	var ferr error
	cand.ForEach(func(bid int) bool {
		st.IndexProbes++
		ferr = mergeEqual(ir.BlockEntries(uint64(bid)), sRows, entryKey, func(row rdbms.Row) types.Value { return row[sci] },
			func(rs []layered.Entry, ss []rdbms.Row) error {
				for _, r := range rs {
					tx, err := c.Tx(uint64(bid), r.Pos)
					if err != nil {
						return err
					}
					st.TxsExamined++
					if inWindow(tx, win) {
						for _, row := range ss {
							out = append(out, OnOffRow{Tx: tx, Row: row})
						}
					}
				}
				return nil
			})
		return ferr == nil
	})
	if ferr != nil {
		return nil, *st, ferr
	}
	// Hash/merge paths emit in different orders; normalise to chain
	// order by transaction id for deterministic results.
	sort.SliceStable(out, func(a, b int) bool { return out[a].Tx.Tid < out[b].Tx.Tid })
	return out, *st, nil
}
