package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sebdb/internal/exec"
	"sebdb/internal/obs"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// spanNames flattens a finished trace into its stage names, depth-first.
func spanNames(sp *obs.Span) []string {
	names := []string{sp.Name()}
	for _, ch := range sp.Children() {
		names = append(names, spanNames(ch)...)
	}
	return names
}

// TestProbeHandOffEquivalence pins the contract of the planner-to-
// operator hand-off on the cross-method equivalence fixture: running
// the layered method from the planner's probe returns the rows, order,
// exec.Stats and span names of the operator probing the index itself,
// and so does the statement as a whole through Execute and EXPLAIN
// ANALYZE. The operator takes the hand-off whenever it drives the
// predicate the planner probed, which one rule now guarantees; handed
// is checked by the operator reading exactly the probe's positions
// inside the window.
func TestProbeHandOffEquivalence(t *testing.T) {
	e := seededChain(t, 12, 20)
	between := sqlparser.Pred{Col: "amount", Op: sqlparser.OpBetween, Val: types.Dec(30), Hi: types.Dec(150)}
	cases := []struct {
		name   string
		where  string
		preds  []sqlparser.Pred
		win    *sqlparser.Window
		handed bool // the probe is taken on the predicate the operator drives
	}{
		{"between", `amount BETWEEN 30 AND 150`, []sqlparser.Pred{between}, nil, true},
		{"point", `amount = 70`, []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpEq, Val: types.Dec(70)}}, nil, true},
		{"residual", `amount BETWEEN 30 AND 150 AND donor = "donor3"`,
			[]sqlparser.Pred{between, {Col: "donor", Op: sqlparser.OpEq, Val: types.Str("donor3")}}, nil, true},
		{"window", `amount BETWEEN 30 AND 150`, []sqlparser.Pred{between}, &sqlparser.Window{Start: 4000, End: 9000}, true},
		{"no match", `amount = 75`, []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpEq, Val: types.Dec(75)}}, nil, true},
		// An open bound ahead of an exact one: the planner and the operator
		// both drive the exact one, so the probe is handed over.
		{"planner and operator disagree", `amount >= 100 AND amount BETWEEN 30 AND 150`,
			[]sqlparser.Pred{{Col: "amount", Op: sqlparser.OpGe, Val: types.Dec(100)}, between}, nil, true},
	}
	for _, workers := range []int{1, 8} {
		e.SetParallelism(workers)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				v := e.CurrentView()
				tbl, err := v.Table("donate")
				if err != nil {
					t.Fatal(err)
				}
				rows, probe := v.estimateLayered(tbl, tc.preds)
				if probe == nil {
					t.Fatal("planner kept no probe")
				}
				if rows != len(probe.Pos) || len(probe.Blocks) != len(probe.Ends) {
					t.Fatalf("estimate %d, probe holds %d positions for %d/%d blocks",
						rows, len(probe.Pos), len(probe.Blocks), len(probe.Ends))
				}
				inWin := v.BlockIdx().AllBlocks()
				if tc.win != nil {
					inWin = v.BlockIdx().TimeWindow(tc.win.Start, tc.win.End)
				}
				probed := 0 // the probe's positions inside the window
				for i, bid := range probe.Blocks {
					if inWin.Get(int(bid)) {
						probed += probe.Ends[i]
						if i > 0 {
							probed -= probe.Ends[i-1]
						}
					}
				}

				run := func(sel func(ctx context.Context) ([]*types.Transaction, exec.Stats, error)) ([][]byte, exec.Stats, []string) {
					ctx, root := obs.NewTrace(context.Background(), e.cfg.Obs, "query")
					txs, st, err := sel(ctx)
					root.Finish()
					if err != nil {
						t.Fatal(err)
					}
					return encodeAll(txs), st, spanNames(root)
				}
				wantRows, wantStats, wantSpans := run(func(ctx context.Context) ([]*types.Transaction, exec.Stats, error) {
					return exec.SelectCtx(ctx, v, "donate", tc.preds, tc.win, exec.MethodLayered)
				})
				gotRows, gotStats, gotSpans := run(func(ctx context.Context) ([]*types.Transaction, exec.Stats, error) {
					return exec.SelectProbed(ctx, v, "donate", tc.preds, tc.win, probe)
				})
				if len(gotRows) != len(wantRows) {
					t.Fatalf("%d rows from the probe, %d re-probing", len(gotRows), len(wantRows))
				}
				for i := range gotRows {
					if !bytes.Equal(gotRows[i], wantRows[i]) {
						t.Fatalf("row %d differs", i)
					}
				}
				if gotStats != wantStats {
					t.Errorf("stats from the probe %+v, re-probing %+v", gotStats, wantStats)
				}
				if handed := wantStats.TxsExamined == probed; handed != tc.handed {
					t.Errorf("operator examined %d rows, the probe holds %d: probe drives predicate %d",
						wantStats.TxsExamined, probed, probe.Drive)
				}
				if !reflect.DeepEqual(gotSpans, wantSpans) {
					t.Errorf("spans from the probe %v, re-probing %v", gotSpans, wantSpans)
				}
				if tc.name == "no match" && (len(wantRows) != 0 || wantStats.IndexProbes == 0) {
					t.Errorf("fixture: want candidate blocks with no match, got %d rows, stats %+v", len(wantRows), wantStats)
				}

				// The statement itself (the planner picks the layered method
				// for every case here): same rows in the same order, and
				// EXPLAIN ANALYZE shows the same stages and exec counters.
				sql := `SELECT * FROM donate WHERE ` + tc.where
				if tc.win != nil {
					sql += fmt.Sprintf(` WINDOW [%d, %d]`, tc.win.Start, tc.win.End)
				}
				res := mustExec(t, e, sql)
				want, err := e.projectTxs(tbl, nil, mustSelect(t, v, tc.preds, tc.win))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("%s: rows differ from the re-probing path", sql)
				}
				analyzed := mustExec(t, e, `EXPLAIN ANALYZE `+sql)
				var stages []string
				for _, row := range analyzed.Rows {
					stage := strings.TrimSpace(row[0].S)
					stages = append(stages, stage)
					if stage == "exec.select.layered" {
						got := exec.Stats{BlocksRead: int(row[2].I), TxsExamined: int(row[3].I), IndexProbes: int(row[4].I)}
						if got != wantStats {
							t.Errorf("EXPLAIN ANALYZE exec stage %+v, re-probing %+v", got, wantStats)
						}
					}
				}
				if want := []string{"query", "parse", "view.pin", "plan", "exec.select.layered", "project"}; !reflect.DeepEqual(stages, want) {
					t.Errorf("EXPLAIN ANALYZE stages %v, want %v", stages, want)
				}
			})
		}
	}
}

// TestPlannerAndOperatorDriveOnePredicate: an open bound ahead of an
// exact one. The planner prices the layered method from the exact
// predicate's 12 matches; the operator must drive that predicate too,
// reading those 12 tuples, not the 240 the open bound admits.
func TestPlannerAndOperatorDriveOnePredicate(t *testing.T) {
	e := seededChain(t, 12, 20)
	sql := `SELECT * FROM donate WHERE amount >= 0 AND amount = 70`
	if got := len(mustExec(t, e, sql).Rows); got != 12 {
		t.Fatalf("%d rows, want 12", got)
	}
	var examined int64 = -1
	for _, row := range mustExec(t, e, `EXPLAIN ANALYZE `+sql).Rows {
		if strings.TrimSpace(row[0].S) == "exec.select.layered" {
			examined = row[3].I
		}
	}
	if examined != 12 {
		t.Errorf("layered operator examined %d tuples, want the 12 the planner counted", examined)
	}
}

// mustSelect runs the layered method with the operator probing the
// index itself.
func mustSelect(t *testing.T, v *View, preds []sqlparser.Pred, win *sqlparser.Window) []*types.Transaction {
	t.Helper()
	txs, _, err := exec.Select(v, "donate", preds, win, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	return txs
}

// TestGetBlockReadsNoSegment checks GET BLOCK answers from the in-memory
// header: no segment read, whatever the cache mode.
func TestGetBlockReadsNoSegment(t *testing.T) {
	e := testEngine(t, Config{CacheMode: CacheNone})
	seedDonation(t, e, 20, 5)
	reads := obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="block"}`)
	before := reads.Value()
	for _, q := range []string{`GET BLOCK ID=2`, `GET BLOCK TID=7`, `GET BLOCK TS=5500`} {
		res := mustExec(t, e, q)
		hdr, err := e.store.Header(uint64(res.Rows[0][0].I))
		if err != nil {
			t.Fatal(err)
		}
		hash := hdr.Hash()
		if got, want := res.Rows[0][4].S, fmt.Sprintf("%x", hash[:8]); got != want {
			t.Errorf("%s: hash %s, want %s", q, got, want)
		}
		if got := res.Rows[0][2].I; got != int64(hdr.TxCount) {
			t.Errorf("%s: txcount %d, want %d", q, got, hdr.TxCount)
		}
	}
	if got := reads.Value() - before; got != 0 {
		t.Errorf("GET BLOCK made %d segment reads", got)
	}
}

// TestCacheHitAllocatesNothing pins the hit path of both caches: the
// key is built in a stack buffer and never reaches the heap.
func TestCacheHitAllocatesNothing(t *testing.T) {
	for _, mode := range []CacheMode{CacheBlocks, CacheTxs} {
		e := testEngine(t, Config{CacheMode: mode})
		seedDonation(t, e, 20, 5)
		if _, err := e.Tx(2, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.Tx(2, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cache mode %v: a hit allocates %v times", mode, allocs)
		}
	}
}
