package exec_test

import (
	"fmt"
	"sort"
	"testing"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/rdbms"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// fixture builds an engine with the donation schema: nBlocks blocks of
// txPerBlock transactions alternating between donate and transfer,
// senders org0..org2, amounts increasing, all on a synthetic time axis
// (block i at ts (i+1)*1000).
func fixture(t testing.TB, nBlocks, txPerBlock int) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, sql := range []string{
		`CREATE donate (donor string, project string, amount decimal)`,
		`CREATE transfer (project string, donor string, organization string, amount decimal)`,
	} {
		if _, err := e.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for b := 0; b < nBlocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < txPerBlock; i++ {
			var tx *types.Transaction
			var err error
			if seq%2 == 0 {
				tx, err = e.NewTransaction(fmt.Sprintf("org%d", seq%3), "donate", []types.Value{
					types.Str(fmt.Sprintf("donor%02d", seq%7)),
					types.Str("education"),
					types.Dec(float64(seq)),
				})
			} else {
				tx, err = e.NewTransaction(fmt.Sprintf("org%d", seq%3), "transfer", []types.Value{
					types.Str("education"),
					types.Str(fmt.Sprintf("donor%02d", seq%7)),
					types.Str(fmt.Sprintf("school%d", seq%4)),
					types.Dec(float64(seq)),
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(b+1) * 1000
			batch = append(batch, tx)
			seq++
		}
		if _, err := e.CommitBlock(batch, int64(b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range [][2]string{
		{"donate", "amount"}, {"transfer", "amount"},
		{"transfer", "organization"}, {"donate", "donor"},
	} {
		if err := e.CreateIndex(idx[0], idx[1]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func tids(txs []*types.Transaction) []uint64 {
	out := make([]uint64, len(txs))
	for i, tx := range txs {
		out[i] = tx.Tid
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameTids(a, b []*types.Transaction) bool {
	x, y := tids(a), tids(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestSelectMethodsAgree(t *testing.T) {
	e := fixture(t, 10, 10)
	preds := []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpBetween,
		Val: types.Dec(20), Hi: types.Dec(45)}}
	scan, sScan, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	bm, sBm, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	lay, sLay, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) == 0 {
		t.Fatal("no results at all")
	}
	if !sameTids(scan, bm) || !sameTids(scan, lay) {
		t.Fatalf("methods disagree: scan=%d bitmap=%d layered=%d", len(scan), len(bm), len(lay))
	}
	// Work ordering mirrors Equations 1-3: scan >= bitmap blocks; layered
	// examines only (near) the result.
	if sBm.BlocksRead > sScan.BlocksRead {
		t.Errorf("bitmap read %d blocks, scan %d", sBm.BlocksRead, sScan.BlocksRead)
	}
	if sLay.TxsExamined > sBm.TxsExamined {
		t.Errorf("layered examined %d txs, bitmap %d", sLay.TxsExamined, sBm.TxsExamined)
	}
}

// TestSelectOpenRangesAgree drives the layered index with one-sided
// ranges, whose missing end is a sentinel outside the numeric kinds, and
// with a range over a discrete column: the layered method must return
// what a scan returns.
func TestSelectOpenRangesAgree(t *testing.T) {
	e := fixture(t, 10, 10)
	for _, p := range []sqlparser.Pred{
		{Col: "amount", Op: sqlparser.OpLe, Val: types.Dec(30)},
		{Col: "amount", Op: sqlparser.OpGe, Val: types.Dec(70)},
		{Col: "donor", Op: sqlparser.OpBetween, Val: types.Str("donor02"), Hi: types.Str("donor04")},
		{Col: "donor", Op: sqlparser.OpLe, Val: types.Str("donor01")},
	} {
		preds := []sqlparser.Pred{p}
		scan, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
		if err != nil {
			t.Fatal(err)
		}
		lay, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
		if err != nil {
			t.Fatal(err)
		}
		if len(scan) == 0 || !sameTids(scan, lay) {
			t.Errorf("%s %v %v: scan=%d layered=%d", p.Col, p.Op, p.Val, len(scan), len(lay))
		}
	}
}

func TestSelectPointQueryDiscreteIndex(t *testing.T) {
	e := fixture(t, 8, 8)
	preds := []sqlparser.Pred{{Col: "donor", Op: sqlparser.OpEq, Val: types.Str("donor03")}}
	scan, _, _ := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
	lay, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) == 0 || !sameTids(scan, lay) {
		t.Errorf("discrete point query: scan=%d layered=%d", len(scan), len(lay))
	}
}

func TestSelectWithWindow(t *testing.T) {
	e := fixture(t, 10, 10)
	win := &sqlparser.Window{Start: 3000, End: 5000} // blocks 2..4
	all, _, _ := exec.Select(e.CurrentView(), "donate", nil, nil, exec.MethodScan)
	windowed, _, err := exec.Select(e.CurrentView(), "donate", nil, win, exec.MethodScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed) == 0 || len(windowed) >= len(all) {
		t.Errorf("window returned %d of %d", len(windowed), len(all))
	}
	for _, tx := range windowed {
		if tx.Ts < 3000 || tx.Ts > 5000 {
			t.Errorf("tx ts %d outside window", tx.Ts)
		}
	}
	// Bitmap and layered agree under the window.
	bm, _, _ := exec.Select(e.CurrentView(), "donate", nil, win, exec.MethodBitmap)
	if !sameTids(windowed, bm) {
		t.Error("bitmap disagrees under window")
	}
}

func TestSelectResidualPredicates(t *testing.T) {
	e := fixture(t, 6, 10)
	// amount drives the index; project is residual.
	preds := []sqlparser.Pred{
		{Col: "amount", Op: sqlparser.OpBetween, Val: types.Dec(0), Hi: types.Dec(30)},
		{Col: "project", Op: sqlparser.OpEq, Val: types.Str("education")},
	}
	lay, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	scan, _, _ := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan)
	if !sameTids(scan, lay) {
		t.Error("residual predicate handling diverged")
	}
	// An impossible residual returns nothing.
	preds[1].Val = types.Str("ghost")
	lay, _, _ = exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered)
	if len(lay) != 0 {
		t.Error("impossible predicate returned rows")
	}
}

func TestSelectErrors(t *testing.T) {
	e := fixture(t, 2, 4)
	if _, _, err := exec.Select(e.CurrentView(), "ghost", nil, nil, exec.MethodScan); err == nil {
		t.Error("missing table accepted")
	}
	// Layered without an index on any predicate column.
	preds := []sqlparser.Pred{{Col: "project", Op: sqlparser.OpEq, Val: types.Str("x")}}
	if _, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodLayered); err == nil {
		t.Error("layered without index accepted")
	}
	// Unknown predicate column.
	preds = []sqlparser.Pred{{Col: "ghost", Op: sqlparser.OpEq, Val: types.Str("x")}}
	if _, _, err := exec.Select(e.CurrentView(), "donate", preds, nil, exec.MethodScan); err == nil {
		t.Error("unknown column accepted")
	}
	if _, _, err := exec.Select(e.CurrentView(), "donate", nil, nil, exec.Method(99)); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestTrackMethodsAgree(t *testing.T) {
	e := fixture(t, 10, 10)
	cases := []*sqlparser.Trace{
		{Operator: "org1", HasOperator: true},
		{Operation: "transfer", HasOperation: true},
		{Operator: "org1", HasOperator: true, Operation: "transfer", HasOperation: true},
		{Operator: "org2", HasOperator: true, Window: &sqlparser.Window{Start: 2000, End: 6000}},
	}
	for i, q := range cases {
		scan, sScan, err := exec.Track(e.CurrentView(), q, exec.MethodScan)
		if err != nil {
			t.Fatalf("case %d scan: %v", i, err)
		}
		bm, _, err := exec.Track(e.CurrentView(), q, exec.MethodBitmap)
		if err != nil {
			t.Fatalf("case %d bitmap: %v", i, err)
		}
		lay, sLay, err := exec.Track(e.CurrentView(), q, exec.MethodLayered)
		if err != nil {
			t.Fatalf("case %d layered: %v", i, err)
		}
		if len(scan) == 0 {
			t.Fatalf("case %d: empty result", i)
		}
		if !sameTids(scan, bm) || !sameTids(scan, lay) {
			t.Errorf("case %d: methods disagree scan=%d bitmap=%d layered=%d",
				i, len(scan), len(bm), len(lay))
		}
		if sLay.TxsExamined > sScan.TxsExamined {
			t.Errorf("case %d: layered examined more txs than scan", i)
		}
	}
	// Verify all results actually match the dimensions.
	q := cases[2]
	got, _, _ := exec.Track(e.CurrentView(), q, exec.MethodLayered)
	for _, tx := range got {
		if tx.SenID != "org1" || tx.Tname != "transfer" {
			t.Errorf("wrong tx in 2-dim track: %s/%s", tx.SenID, tx.Tname)
		}
	}
}

func TestTrackErrors(t *testing.T) {
	e := fixture(t, 2, 4)
	if _, _, err := exec.Track(e.CurrentView(), &sqlparser.Trace{}, exec.MethodScan); err == nil {
		t.Error("dimensionless trace accepted")
	}
	if _, _, err := exec.Track(e.CurrentView(), &sqlparser.Trace{Operator: "x", HasOperator: true}, exec.Method(9)); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestOnChainJoinMethodsAgree(t *testing.T) {
	e := fixture(t, 8, 12)
	run := func(m exec.Method) []exec.JoinRow {
		rows, _, err := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "amount", "amount", nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return rows
	}
	// donate amounts are even, transfer odd — join on amount is empty;
	// switch to a column with matches: donor.
	if err := e.CreateIndex("transfer", "donor"); err != nil {
		t.Fatal(err)
	}
	runDonor := func(m exec.Method) []exec.JoinRow {
		rows, _, err := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "donor", "donor", nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return rows
	}
	if got := run(exec.MethodScan); len(got) != 0 {
		t.Errorf("disjoint join returned %d rows", len(got))
	}
	scan := runDonor(exec.MethodScan)
	bm := runDonor(exec.MethodBitmap)
	lay := runDonor(exec.MethodLayered)
	if len(scan) == 0 {
		t.Fatal("join empty")
	}
	if len(scan) != len(bm) || len(scan) != len(lay) {
		t.Fatalf("join methods disagree: %d/%d/%d", len(scan), len(bm), len(lay))
	}
	// Same multiset of (left, right) tid pairs.
	key := func(rows []exec.JoinRow) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%d-%d", r.Left.Tid, r.Right.Tid)
		}
		sort.Strings(out)
		return out
	}
	ks, kl := key(scan), key(lay)
	for i := range ks {
		if ks[i] != kl[i] {
			t.Fatalf("pair %d differs: %s vs %s", i, ks[i], kl[i])
		}
	}
	// Every pair satisfies the join predicate.
	dt, _ := e.CurrentView().Table("donate")
	tt, _ := e.CurrentView().Table("transfer")
	for _, r := range scan {
		lv, _ := dt.Value(r.Left, "donor")
		rv, _ := tt.Value(r.Right, "donor")
		if !types.Equal(lv, rv) {
			t.Fatalf("join pair violates predicate: %v vs %v", lv, rv)
		}
	}
}

func TestOnChainJoinWindow(t *testing.T) {
	e := fixture(t, 10, 10)
	e.CreateIndex("transfer", "donor")
	win := &sqlparser.Window{Start: 1000, End: 3000}
	all, _, _ := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "donor", "donor", nil, exec.MethodScan)
	scan, _, _ := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "donor", "donor", win, exec.MethodScan)
	lay, _, err := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "donor", "donor", win, exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) == 0 || len(scan) >= len(all) {
		t.Errorf("windowed join %d of %d", len(scan), len(all))
	}
	if len(scan) != len(lay) {
		t.Errorf("windowed join methods disagree: %d vs %d", len(scan), len(lay))
	}
}

func TestOnChainJoinErrors(t *testing.T) {
	e := fixture(t, 2, 4)
	if _, _, err := exec.OnChainJoin(e.CurrentView(), "ghost", "transfer", "a", "a", nil, exec.MethodScan); err == nil {
		t.Error("missing left table accepted")
	}
	if _, _, err := exec.OnChainJoin(e.CurrentView(), "donate", "ghost", "a", "a", nil, exec.MethodScan); err == nil {
		t.Error("missing right table accepted")
	}
	if _, _, err := exec.OnChainJoin(e.CurrentView(), "donate", "transfer", "project", "project", nil, exec.MethodLayered); err == nil {
		t.Error("layered join without indexes accepted")
	}
}

func TestOnOffJoinMethodsAgree(t *testing.T) {
	e := fixture(t, 8, 10)
	db := e.OffChain()
	if err := db.CreateTable("donorinfo", []rdbms.Column{
		{Name: "donor", Kind: types.KindString},
		{Name: "age", Kind: types.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db.Insert("donorinfo", rdbms.Row{types.Str(fmt.Sprintf("donor%02d", i)), types.Int(int64(20 + i))})
	}
	run := func(m exec.Method) []exec.OnOffRow {
		rows, _, err := exec.OnOffJoin(e.CurrentView(), db, "donate", "donor", "donorinfo", "donor", nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return rows
	}
	scan := run(exec.MethodScan)
	bm := run(exec.MethodBitmap)
	lay := run(exec.MethodLayered)
	if len(scan) == 0 {
		t.Fatal("on-off join empty")
	}
	if len(scan) != len(bm) || len(scan) != len(lay) {
		t.Fatalf("on-off methods disagree: %d/%d/%d", len(scan), len(bm), len(lay))
	}
	dt, _ := e.CurrentView().Table("donate")
	for _, r := range lay {
		tv, _ := dt.Value(r.Tx, "donor")
		if !types.Equal(tv, r.Row[0]) {
			t.Fatalf("on-off pair violates predicate: %v vs %v", tv, r.Row[0])
		}
	}
}

func TestOnOffJoinContinuousAttr(t *testing.T) {
	e := fixture(t, 8, 10)
	db := e.OffChain()
	db.CreateTable("pricing", []rdbms.Column{
		{Name: "amount", Kind: types.KindDecimal},
		{Name: "tier", Kind: types.KindString},
	})
	// Only amounts 10..20 exist off-chain: min/max filtering applies.
	for i := 10; i <= 20; i++ {
		db.Insert("pricing", rdbms.Row{types.Dec(float64(i)), types.Str("gold")})
	}
	run := func(m exec.Method) int {
		rows, _, err := exec.OnOffJoin(e.CurrentView(), db, "donate", "amount", "pricing", "amount", nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return len(rows)
	}
	nScan, nLay := run(exec.MethodScan), run(exec.MethodLayered)
	if nScan == 0 || nScan != nLay {
		t.Errorf("continuous on-off join: scan=%d layered=%d", nScan, nLay)
	}
	// The layered path must have skipped blocks outside [10, 20].
	_, stLay, _ := exec.OnOffJoin(e.CurrentView(), db, "donate", "amount", "pricing", "amount", nil, exec.MethodLayered)
	_, stScan, _ := exec.OnOffJoin(e.CurrentView(), db, "donate", "amount", "pricing", "amount", nil, exec.MethodScan)
	if stLay.TxsExamined >= stScan.TxsExamined {
		t.Errorf("layered examined %d txs, scan %d", stLay.TxsExamined, stScan.TxsExamined)
	}
}

func TestOnOffJoinErrors(t *testing.T) {
	e := fixture(t, 2, 4)
	db := e.OffChain()
	if _, _, err := exec.OnOffJoin(e.CurrentView(), db, "donate", "donor", "ghost", "x", nil, exec.MethodScan); err == nil {
		t.Error("missing off-chain table accepted")
	}
	if _, _, err := exec.OnOffJoin(e.CurrentView(), db, "ghost", "x", "ghost", "x", nil, exec.MethodScan); err == nil {
		t.Error("missing on-chain table accepted")
	}
	db.CreateTable("t2", []rdbms.Column{{Name: "x", Kind: types.KindInt}})
	if _, _, err := exec.OnOffJoin(e.CurrentView(), db, "donate", "project", "t2", "x", nil, exec.MethodLayered); err == nil {
		t.Error("layered on-off without index accepted")
	}
	// Empty off-chain table: empty result, no error.
	rows, _, err := exec.OnOffJoin(e.CurrentView(), db, "donate", "amount", "t2", "x", nil, exec.MethodScan)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty off-chain join: %d rows, %v", len(rows), err)
	}
}
