package exec

import (
	"context"
	"fmt"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/rdbms"
	"sebdb/internal/schema"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// JoinRow is one on-chain equi-join result.
type JoinRow struct {
	Left  *types.Transaction
	Right *types.Transaction
}

// OnOffRow is one on-off-chain join result: an on-chain transaction
// paired with an off-chain row.
type OnOffRow struct {
	Tx  *types.Transaction
	Row rdbms.Row
}

// keyed is a (join key, transaction) pair used by the hash and merge
// phases.
type keyed struct {
	key types.Value
	tx  *types.Transaction
}

// collectKeyed reads the join column of every window-eligible
// transaction of table tbl in the given blocks.
func collectKeyed(c Chain, tbl *schema.Table, col string, blocks *bitmap.Bitmap,
	win *sqlparser.Window, st *Stats) ([]keyed, error) {
	keep := func(tx *types.Transaction) (bool, error) { return tx.Tname == tbl.Name && inWindow(tx, win), nil }
	var out []keyed
	var ferr error
	blocks.ForEach(func(bid int) bool {
		txs, n, err := c.FilterBlock(uint64(bid), keep)
		if err != nil {
			ferr = err
			return false
		}
		st.BlocksRead++
		st.TxsExamined += n
		for _, tx := range txs {
			v, err := tbl.Value(tx, col)
			if err != nil {
				ferr = err
				return false
			}
			out = append(out, keyed{key: v, tx: tx})
		}
		return true
	})
	return out, ferr
}

// OnChainJoin implements the on-chain join (paper §V-B, Algorithm 2).
//
//   - MethodScan: one-pass hash join over every block in the window.
//   - MethodBitmap: the same hash join, but only blocks containing rows
//     of r or s (table-level bitmap) are read.
//   - MethodLayered: Algorithm 2 — candidate block pairs are filtered by
//     the first-level intersect() test, then each surviving pair is
//     joined by sort-merge over the blocks' second-level runs.
func OnChainJoin(c Chain, r, s, rCol, sCol string, win *sqlparser.Window, m Method) ([]JoinRow, Stats, error) {
	return OnChainJoinCtx(context.Background(), c, r, s, rCol, sCol, win, m)
}

// OnChainJoinCtx is OnChainJoin with trace support ("exec.join.onchain"
// stage); the Stats always fold into the registry's exec counters.
func OnChainJoinCtx(ctx context.Context, c Chain, r, s, rCol, sCol string, win *sqlparser.Window, m Method) ([]JoinRow, Stats, error) {
	_, sp := obs.StartSpan(ctx, "exec.join.onchain")
	out, st, err := onChainJoinImpl(c, r, s, rCol, sCol, win, m)
	finishStats(sp, st)
	recordStats(c, "join", m, st)
	return out, st, err
}

func onChainJoinImpl(c Chain, r, s, rCol, sCol string, win *sqlparser.Window, m Method) ([]JoinRow, Stats, error) {
	var st Stats
	rt, err := c.Table(r)
	if err != nil {
		return nil, st, err
	}
	stt, err := c.Table(s)
	if err != nil {
		return nil, st, err
	}

	switch m {
	case MethodScan, MethodBitmap:
		// One-pass hash join (§V-B): a single scan over the relevant
		// blocks partitions both tables' rows, then r probes s's hash
		// table. Under MethodBitmap only blocks containing rows of r or
		// s are read.
		window := windowBlocks(c, win)
		scanBlocks := window
		rBlocks, sBlocks := window, window
		if m == MethodBitmap {
			rBlocks = window.Clone().And(c.TableBlocks(rt.Name))
			sBlocks = window.Clone().And(c.TableBlocks(stt.Name))
			scanBlocks = rBlocks.Clone().Or(sBlocks)
		}
		var rRows []keyed
		ht := make(map[types.Value][]*types.Transaction)
		var ferr error
		scanBlocks.ForEach(func(bid int) bool {
			inR := rBlocks.Get(bid)
			inS := sBlocks.Get(bid)
			txs, n, err := c.FilterBlock(uint64(bid), func(tx *types.Transaction) (bool, error) {
				return inWindow(tx, win) && (inR && tx.Tname == rt.Name || inS && tx.Tname == stt.Name), nil
			})
			if err != nil {
				ferr = err
				return false
			}
			st.BlocksRead++
			st.TxsExamined += n
			for _, tx := range txs {
				if inR && tx.Tname == rt.Name {
					v, err := rt.Value(tx, rCol)
					if err != nil {
						ferr = err
						return false
					}
					rRows = append(rRows, keyed{key: v, tx: tx})
				}
				if inS && tx.Tname == stt.Name {
					v, err := stt.Value(tx, sCol)
					if err != nil {
						ferr = err
						return false
					}
					ht[layered.Key(v)] = append(ht[layered.Key(v)], tx)
				}
			}
			return true
		})
		if ferr != nil {
			return nil, st, ferr
		}
		var out []JoinRow
		for _, kr := range rRows {
			for _, sx := range ht[layered.Key(kr.key)] {
				out = append(out, JoinRow{Left: kr.tx, Right: sx})
			}
		}
		return out, st, nil

	case MethodLayered:
		return onChainJoinLayered(c, rt, stt, rCol, sCol, win, &st)
	default:
		return nil, st, fmt.Errorf("exec: unknown method %v", m)
	}
}

func onChainJoinLayered(c Chain, rt, stt *schema.Table, rCol, sCol string,
	win *sqlparser.Window, st *Stats) ([]JoinRow, Stats, error) {
	ir := c.Layered(rt.Name, rCol)
	is := c.Layered(stt.Name, sCol)
	if ir == nil || is == nil {
		return nil, *st, fmt.Errorf("%w: join columns %s.%s/%s.%s",
			ErrNoIndex, rt.Name, rCol, stt.Name, sCol)
	}
	// Lines 2-7: window bitmap ANDed with each index's first level.
	window := windowBlocks(c, win)
	mr := ir.AnyBlocks().And(window)
	ms := is.AnyBlocks().And(window.Clone())

	// Lines 8-15: intersect test per candidate pair (driven by the
	// first-level values/buckets), then sort-merge per surviving pair.
	// Second-level entries are materialised once per block, not per
	// pair.
	var out []JoinRow
	rCache := make(map[uint64][]layered.Entry)
	sCache := make(map[uint64][]layered.Entry)
	entries := func(cache map[uint64][]layered.Entry, idx *layered.Index, bid uint64) []layered.Entry {
		if _, ok := cache[bid]; !ok {
			cache[bid] = idx.BlockEntries(bid)
		}
		return cache[bid]
	}
	for _, pair := range ir.JoinPairs(is, mr, ms) {
		st.IndexProbes++
		re, se := entries(rCache, ir, pair[0]), entries(sCache, is, pair[1])
		rows, err := sortMergeEntries(c, re, se, pair[0], pair[1], win, st)
		if err != nil {
			return nil, *st, err
		}
		out = append(out, rows...)
	}
	return out, *st, nil
}

// sortMergeEntries merge-joins two blocks' second-level entry lists;
// both are key-sorted, so this is the SortMergeJoin(b_r, b_s) of
// Algorithm 2.
func sortMergeEntries(c Chain, re, se []layered.Entry,
	br, bs uint64, win *sqlparser.Window, st *Stats) ([]JoinRow, error) {
	var out []JoinRow
	err := mergeEqual(re, se, entryKey, entryKey, func(rs, ss []layered.Entry) error {
		for _, r := range rs {
			ltx, err := c.Tx(br, r.Pos)
			if err != nil {
				return err
			}
			st.TxsExamined++
			if !inWindow(ltx, win) {
				continue
			}
			for _, s := range ss {
				rtx, err := c.Tx(bs, s.Pos)
				if err != nil {
					return err
				}
				st.TxsExamined++
				if inWindow(rtx, win) {
					out = append(out, JoinRow{Left: ltx, Right: rtx})
				}
			}
		}
		return nil
	})
	return out, err
}

func entryKey(e layered.Entry) types.Value { return e.Key }

// mergeEqual walks two key-sorted lists in step and hands fn each pair
// of runs, one from either list, whose keys compare equal — the merge
// phase of a sort-merge join. An error from fn ends the walk.
func mergeEqual[A, B any](a []A, b []B, keyA func(A) types.Value, keyB func(B) types.Value, fn func([]A, []B) error) error {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch cmp := types.Compare(keyA(a[i]), keyB(b[j])); {
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			i2, j2 := i+1, j+1
			for i2 < len(a) && types.Equal(keyA(a[i2]), keyA(a[i])) {
				i2++
			}
			for j2 < len(b) && types.Equal(keyB(b[j2]), keyB(b[j])) {
				j2++
			}
			if err := fn(a[i:i2], b[j:j2]); err != nil {
				return err
			}
			i, j = i2, j2
		}
	}
	return nil
}
