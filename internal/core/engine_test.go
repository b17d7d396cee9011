package core

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"sebdb/internal/rdbms"
	"sebdb/internal/types"
)

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// seedDonation creates the donation schema and loads n donate rows,
// flushing every blockTxs transactions.
func seedDonation(t testing.TB, e *Engine, n, blockTxs int) {
	t.Helper()
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	mustExec(t, e, `CREATE transfer (project string, donor string, organization string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	var batch []*types.Transaction
	for i := 0; i < n; i++ {
		tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), "donate", []types.Value{
			types.Str(fmt.Sprintf("donor%03d", i%10)),
			types.Str("education"),
			types.Dec(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tx.Ts = int64(i+1) * 1000 // synthetic time axis for window tests
		batch = append(batch, tx)
		if len(batch) == blockTxs {
			if _, err := e.CommitBlock(batch, int64(i+1)*1000); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		if _, err := e.CommitBlock(batch, int64(n+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
}

func mustExec(t testing.TB, e *Engine, sql string, params ...types.Value) *Result {
	t.Helper()
	res, err := e.Execute(sql, params...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 5})
	mustExec(t, e, `CREATE Donate ( donor string, project string, amount decimal)`)
	mustExec(t, e, `INSERT into Donate ("Jack", "Education", 100)`)
	mustExec(t, e, `INSERT INTO donate VALUES(?,?,?)`,
		types.Str("Mary"), types.Str("Health"), types.Dec(50))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT * FROM donate WHERE donor = "Jack"`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// SELECT * exposes system columns first.
	if res.Columns[0] != "tid" || res.Columns[4] != "donor" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Projection.
	res = mustExec(t, e, `SELECT amount, donor FROM donate WHERE project = "Health"`)
	if len(res.Rows) != 1 || res.Rows[0][0] != types.Dec(50) || res.Rows[0][1] != types.Str("Mary") {
		t.Errorf("projected row = %v", res.Rows)
	}
	// The schema tx and the inserts share the chain.
	if e.Height() == 0 {
		t.Error("no blocks were packaged")
	}
}

func TestExecuteErrors(t *testing.T) {
	e := testEngine(t, Config{})
	cases := []string{
		`SELECT * FROM ghost`,
		`INSERT INTO ghost (1)`,
		`CREATE t (a blob)`,
		`GARBAGE`,
	}
	for _, sql := range cases {
		if _, err := e.Execute(sql); err == nil {
			t.Errorf("Execute(%q) should fail", sql)
		}
	}
	// Placeholder arity.
	mustExec(t, e, `CREATE t (a int)`)
	if _, err := e.Execute(`INSERT INTO t VALUES(?)`); err == nil {
		t.Error("missing params accepted")
	}
	if _, err := e.Execute(`INSERT INTO t VALUES(1)`, types.Int(2)); err == nil {
		t.Error("extra params accepted")
	}
	// Wrong arity vs schema.
	if _, err := e.Execute(`INSERT INTO t VALUES(1, 2)`); err == nil {
		t.Error("schema arity mismatch accepted")
	}
	// Conflicting CREATE.
	if _, err := e.Execute(`CREATE t (b string)`); err == nil {
		t.Error("conflicting redefinition accepted")
	}
}

func TestAutoPackaging(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 10})
	mustExec(t, e, `CREATE t (a int)`)
	e.Flush()
	h0 := e.Height()
	for i := 0; i < 25; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t (%d)`, i))
	}
	if got := e.Height() - h0; got != 2 {
		t.Errorf("auto-packaged %d blocks, want 2 (mempool holds the remainder)", got)
	}
	e.Flush()
	if got := e.Height() - h0; got != 3 {
		t.Errorf("after flush %d blocks, want 3", got)
	}
	res := mustExec(t, e, `SELECT * FROM t`)
	if len(res.Rows) != 25 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestTidAssignmentMonotonic(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4})
	mustExec(t, e, `CREATE t (a int)`)
	for i := 0; i < 12; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t (%d)`, i))
	}
	e.Flush()
	res := mustExec(t, e, `SELECT tid FROM t`)
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		tid := r[0].I
		if seen[tid] {
			t.Fatalf("duplicate tid %d", tid)
		}
		seen[tid] = true
	}
	if len(seen) != 12 {
		t.Errorf("distinct tids = %d", len(seen))
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, Config{Dir: dir, BlockMaxTxs: 5})
	seedDonation(t, e, 20, 5)
	wantHeight := e.Height()
	e.Close()

	e2 := testEngine(t, Config{Dir: dir, BlockMaxTxs: 5})
	if e2.Height() != wantHeight {
		t.Fatalf("recovered height %d, want %d", e2.Height(), wantHeight)
	}
	// Catalog was replayed from schema transactions.
	res := mustExec(t, e2, `SELECT * FROM donate WHERE amount BETWEEN 5 AND 7`)
	if len(res.Rows) != 3 {
		t.Errorf("recovered query rows = %d", len(res.Rows))
	}
	// And the chain keeps growing.
	mustExec(t, e2, `INSERT INTO donate ("X", "Y", 1)`)
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tids continue past the recovered maximum.
	res = mustExec(t, e2, `SELECT tid FROM donate WHERE donor = "X"`)
	if len(res.Rows) != 1 {
		t.Fatalf("new row missing")
	}
}

func TestTraceQueries(t *testing.T) {
	e := testEngine(t, Config{})
	seedDonation(t, e, 30, 10)
	// One dimension: operator.
	res := mustExec(t, e, `TRACE OPERATOR = "org1"`)
	if len(res.Rows) != 10 {
		t.Errorf("TRACE operator rows = %d", len(res.Rows))
	}
	// One dimension: operation (includes the schema txs under _schema).
	res = mustExec(t, e, `TRACE OPERATION = "donate"`)
	if len(res.Rows) != 30 {
		t.Errorf("TRACE operation rows = %d", len(res.Rows))
	}
	// Two dimensions.
	res = mustExec(t, e, `TRACE OPERATOR = "org2", OPERATION = "donate"`)
	if len(res.Rows) != 10 {
		t.Errorf("TRACE 2-dim rows = %d", len(res.Rows))
	}
	// With a window covering only the first data block (ts 1000..10000).
	res = mustExec(t, e, `TRACE [0, 10000] OPERATOR = "org0"`)
	if len(res.Rows) >= 10 || len(res.Rows) == 0 {
		t.Errorf("windowed TRACE rows = %d", len(res.Rows))
	}
}

func TestGetBlock(t *testing.T) {
	e := testEngine(t, Config{})
	seedDonation(t, e, 20, 5)
	res := mustExec(t, e, `GET BLOCK ID=1`)
	if res.Rows[0][0] != types.Int(1) {
		t.Errorf("height = %v", res.Rows[0][0])
	}
	// Lookup by transaction id.
	res = mustExec(t, e, `GET BLOCK TID=7`)
	h := res.Rows[0][0].I
	blk, err := e.Block(uint64(h))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tx := range blk.Txs {
		if tx.Tid == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("block %d does not contain tid 7", h)
	}
	// Lookup by time.
	res = mustExec(t, e, `GET BLOCK TS=5500`)
	if res.Rows[0][0].I < 0 {
		t.Error("ts lookup failed")
	}
	if _, err := e.Execute(`GET BLOCK ID=9999`); err == nil {
		t.Error("missing block accepted")
	}

	// Empty blocks between data blocks and at the tip own no tid, and a
	// repeated timestamp is clamped one past the tip's, so every lookup
	// has exactly one answer. Blocks 0-4 hold tids 1-22; the tip is
	// block 4 at ts 20000.
	for _, c := range []struct {
		txs []*types.Transaction
		ts  int64
	}{
		{nil, 25000}, // block 5
		{nil, 25000}, // block 6, stamped 25001
		{[]*types.Transaction{donateTx(t, e, 100), donateTx(t, e, 101)}, 30000}, // block 7: tids 23-24
		{nil, 40000}, // block 8, the tip
	} {
		if _, err := e.CommitBlock(c.txs, c.ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustExec(t, e, `GET BLOCK ID=6`).Rows[0][1]; got != types.Time(25001) {
		t.Errorf("block 6 stamped %v, want the clamped 25001", got)
	}
	for _, c := range []struct {
		q    string
		want int64 // -1: no block
	}{
		{`GET BLOCK TID=22`, 4}, {`GET BLOCK TID=23`, 7}, {`GET BLOCK TID=24`, 7}, {`GET BLOCK TID=25`, -1},
		{`GET BLOCK TS=0`, -1}, {`GET BLOCK TS=1`, 0}, {`GET BLOCK TS=24999`, 4},
		{`GET BLOCK TS=25000`, 5}, {`GET BLOCK TS=25001`, 6}, {`GET BLOCK TS=29999`, 6},
		{`GET BLOCK TS=30000`, 7}, {`GET BLOCK TS=99999`, 8},
	} {
		res, err := e.Execute(c.q)
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("%s answered block %v", c.q, res.Rows[0][0])
		case c.want >= 0 && err != nil:
			t.Errorf("%s: %v", c.q, err)
		case c.want >= 0 && res.Rows[0][0] != types.Int(c.want):
			t.Errorf("%s answered block %v, want %d", c.q, res.Rows[0][0], c.want)
		}
	}
}

func TestCreateIndexAndLayeredSelect(t *testing.T) {
	e := testEngine(t, Config{HistogramDepth: 10})
	seedDonation(t, e, 100, 10)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if e.CurrentView().Layered("donate", "amount") == nil {
		t.Fatal("index not registered")
	}
	res := mustExec(t, e, `SELECT * FROM donate WHERE amount BETWEEN 40 AND 49`)
	if len(res.Rows) != 10 {
		t.Errorf("indexed range rows = %d", len(res.Rows))
	}
	// Index is maintained on new appends.
	mustExec(t, e, `INSERT INTO donate ("Z", "P", 45.5)`)
	e.Flush()
	res = mustExec(t, e, `SELECT * FROM donate WHERE amount BETWEEN 40 AND 49`)
	if len(res.Rows) != 11 {
		t.Errorf("after append rows = %d", len(res.Rows))
	}
	// Discrete index on a string column.
	if err := e.CreateIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, `SELECT * FROM donate WHERE donor = "donor003"`)
	if len(res.Rows) != 10 {
		t.Errorf("discrete index rows = %d", len(res.Rows))
	}
	// Errors.
	if err := e.CreateIndex("ghost", "x"); err == nil {
		t.Error("index on missing table")
	}
	if err := e.CreateIndex("donate", "ghost"); err == nil {
		t.Error("index on missing column")
	}
}

func TestOffChainSelect(t *testing.T) {
	e := testEngine(t, Config{})
	if err := createDonorInfo(e); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT * FROM offchain.donorinfo WHERE age > 30`)
	if len(res.Rows) != 2 {
		t.Errorf("off-chain rows = %d", len(res.Rows))
	}
	res = mustExec(t, e, `SELECT donor FROM donorinfo WHERE age = 25`)
	if len(res.Rows) != 1 || res.Rows[0][0] != types.Str("alice") {
		t.Errorf("off-chain projection = %v", res.Rows)
	}
}

func createDonorInfo(e *Engine) error {
	db := e.OffChain()
	if err := db.CreateTable("donorinfo", []rdbms.Column{
		{Name: "donor", Kind: types.KindString}, {Name: "age", Kind: types.KindInt},
	}); err != nil {
		return err
	}
	rows := [][]types.Value{
		{types.Str("alice"), types.Int(25)},
		{types.Str("bob"), types.Int(35)},
		{types.Str("carol"), types.Int(45)},
	}
	for _, r := range rows {
		if err := db.Insert("donorinfo", r); err != nil {
			return err
		}
	}
	return nil
}

func TestOnChainJoinSQL(t *testing.T) {
	e := testEngine(t, Config{})
	mustExec(t, e, `CREATE transfer (project string, donor string, organization string, amount decimal)`)
	mustExec(t, e, `CREATE distribute (project string, donor string, organization string, donee string, amount decimal)`)
	mustExec(t, e, `INSERT INTO transfer ("edu", "jack", "school1", 100)`)
	mustExec(t, e, `INSERT INTO transfer ("edu", "mary", "school2", 200)`)
	mustExec(t, e, `INSERT INTO distribute ("edu", "jack", "school1", "tom", 50)`)
	mustExec(t, e, `INSERT INTO distribute ("edu", "jack", "school1", "ann", 25)`)
	e.Flush()
	res := mustExec(t, e, `SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization`)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	// Both sides' columns are present, prefixed.
	if res.Columns[0] != "transfer.tid" {
		t.Errorf("columns = %v", res.Columns[:3])
	}
}

func TestOnOffJoinSQL(t *testing.T) {
	e := testEngine(t, Config{})
	mustExec(t, e, `CREATE distribute (project string, donee string, amount decimal)`)
	mustExec(t, e, `INSERT INTO distribute ("edu", "alice", 10)`)
	mustExec(t, e, `INSERT INTO distribute ("edu", "bob", 20)`)
	mustExec(t, e, `INSERT INTO distribute ("edu", "ghost", 30)`)
	e.Flush()
	db := e.OffChain()
	db.CreateTable("doneeinfo", []rdbms.Column{
		{Name: "donee", Kind: types.KindString}, {Name: "income", Kind: types.KindDecimal}})
	db.Insert("doneeinfo", []types.Value{types.Str("alice"), types.Dec(1000)})
	db.Insert("doneeinfo", []types.Value{types.Str("bob"), types.Dec(2000)})

	res := mustExec(t, e, `SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee`)
	if len(res.Rows) != 2 {
		t.Fatalf("on-off join rows = %d", len(res.Rows))
	}
	// Flipped order normalises.
	res2 := mustExec(t, e, `SELECT * FROM offchain.doneeinfo, onchain.distribute ON distribute.donee = doneeinfo.donee`)
	if len(res2.Rows) != 2 {
		t.Errorf("flipped join rows = %d", len(res2.Rows))
	}
	// With a layered index on the join column the layered path is used.
	if err := e.CreateIndex("distribute", "donee"); err != nil {
		t.Fatal(err)
	}
	res3 := mustExec(t, e, `SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee`)
	if len(res3.Rows) != 2 {
		t.Errorf("layered on-off join rows = %d", len(res3.Rows))
	}
}

func TestSignatureVerificationOnSubmittedTxs(t *testing.T) {
	e := testEngine(t, Config{})
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 42
	e.RegisterKey("org9", ed25519.NewKeyFromSeed(seed))
	mustExec(t, e, `CREATE t (a int)`)
	tx, err := e.NewTransaction("org9", "t", []types.Value{types.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !tx.VerifySig() {
		t.Error("registered sender's tx not signed")
	}
	// Unregistered sender gets an unsigned tx.
	tx2, _ := e.NewTransaction("anon", "t", []types.Value{types.Int(2)})
	if tx2.VerifySig() {
		t.Error("unregistered sender's tx claims a valid signature")
	}
}

func TestCacheModes(t *testing.T) {
	for _, mode := range []CacheMode{CacheNone, CacheBlocks, CacheTxs} {
		e := testEngine(t, Config{CacheMode: mode, CacheBytes: 1 << 20})
		seedDonation(t, e, 30, 10)
		if err := e.CreateIndex("donate", "amount"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			res := mustExec(t, e, `SELECT * FROM donate WHERE amount BETWEEN 0 AND 9`)
			if len(res.Rows) != 10 {
				t.Fatalf("mode %d: rows = %d", mode, len(res.Rows))
			}
		}
		cs := e.CacheStats()
		if mode == CacheNone && (cs.Hits+cs.Misses) != 0 {
			t.Errorf("CacheNone recorded traffic: %d/%d", cs.Hits, cs.Misses)
		}
		if mode != CacheNone && cs.Hits == 0 {
			t.Errorf("mode %d: repeated query produced no cache hits (misses=%d)", mode, cs.Misses)
		}
		if mode != CacheNone && (cs.Entries == 0 || cs.Bytes == 0) {
			t.Errorf("mode %d: cache occupancy not reported: %+v", mode, cs)
		}
	}
}

// TestIndexCreationBypassesCache: sampling a continuous column's
// histogram and backfilling the new index read the store directly, so
// creating indexes over the whole chain leaves the query cache exactly
// as it was.
func TestIndexCreationBypassesCache(t *testing.T) {
	e := testEngine(t, Config{CacheMode: CacheBlocks, CacheBytes: 1 << 20, HistogramDepth: 10})
	seedDonation(t, e, 60, 1)
	before := e.CacheStats()
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats(); after != before {
		t.Errorf("index creation moved the cache: %+v -> %+v", before, after)
	}
}

func TestCountStar(t *testing.T) {
	e := testEngine(t, Config{})
	seedDonation(t, e, 30, 10)
	res := mustExec(t, e, `SELECT COUNT(*) FROM donate`)
	if len(res.Rows) != 1 || res.Rows[0][0] != types.Int(30) {
		t.Errorf("COUNT(*) = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT COUNT(*) FROM donate WHERE amount BETWEEN 5 AND 14`)
	if res.Rows[0][0] != types.Int(10) {
		t.Errorf("filtered COUNT = %v", res.Rows[0][0])
	}
	// Off-chain count.
	if err := createDonorInfo(e); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, `SELECT COUNT(*) FROM offchain.donorinfo`)
	if res.Rows[0][0] != types.Int(3) {
		t.Errorf("off-chain COUNT = %v", res.Rows[0][0])
	}
	// COUNT in a join is rejected.
	if _, err := e.Execute(`SELECT COUNT(*) FROM a, b ON a.x = b.y`); err == nil {
		t.Error("COUNT join accepted")
	}
	// A column actually named count still works.
	mustExec(t, e, `CREATE counts (count int)`)
	e.Flush()
	mustExec(t, e, `INSERT INTO counts (7)`)
	e.Flush()
	res = mustExec(t, e, `SELECT count FROM counts`)
	if len(res.Rows) != 1 || res.Rows[0][0] != types.Int(7) {
		t.Errorf("column named count = %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	e := testEngine(t, Config{HistogramDepth: 10})
	seedDonation(t, e, 100, 10)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Explain(`SELECT * FROM donate WHERE amount BETWEEN 10 AND 12`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != types.Str("layered") {
		t.Errorf("selective query explained as %v", res.Rows[0][0])
	}
	// Without a usable index the planner falls back to bitmap/scan.
	res, err = e.Explain(`SELECT * FROM donate WHERE donor = "donor001"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == types.Str("layered") {
		t.Error("unindexed predicate explained as layered")
	}
	if _, err := e.Explain(`TRACE OPERATOR = "x"`); err == nil {
		t.Error("EXPLAIN of TRACE accepted")
	}
	if _, err := e.Explain(`SELECT * FROM ghost`); err == nil {
		t.Error("EXPLAIN of missing table accepted")
	}
}

func TestCreateAuthIndexOnEngine(t *testing.T) {
	e := testEngine(t, Config{HistogramDepth: 10})
	seedDonation(t, e, 40, 10)
	// Continuous app column, discrete app column, and a system column.
	for _, spec := range [][2]string{
		{"donate", "amount"}, {"donate", "donor"}, {"", "senid"},
	} {
		if err := e.CreateAuthIndex(spec[0], spec[1]); err != nil {
			t.Fatalf("CreateAuthIndex(%q,%q): %v", spec[0], spec[1], err)
		}
		if err := e.CreateAuthIndex(spec[0], spec[1]); err != nil {
			t.Errorf("idempotent CreateAuthIndex: %v", err)
		}
		if e.CurrentView().AuthIndex(spec[0], spec[1]) == nil {
			t.Errorf("AuthIndex(%q,%q) missing", spec[0], spec[1])
		}
	}
	// Errors.
	if err := e.CreateAuthIndex("ghost", "x"); err == nil {
		t.Error("ALI on missing table")
	}
	if err := e.CreateAuthIndex("donate", "ghost"); err == nil {
		t.Error("ALI on missing column")
	}
	if err := e.CreateAuthIndex("", "ghostsys"); err == nil {
		t.Error("ALI on missing system column")
	}
	// ALIs are maintained on append (recordsFor path).
	before := e.CurrentView().AuthIndex("donate", "amount").Blocks()
	mustExec(t, e, `INSERT INTO donate ("new", "p", 3.5)`)
	e.Flush()
	if after := e.CurrentView().AuthIndex("donate", "amount").Blocks(); after <= before {
		t.Errorf("ALI not maintained: %d -> %d blocks", before, after)
	}
	// Catalog and Headers accessors.
	if !e.Catalog().Has("donate") {
		t.Error("Catalog accessor broken")
	}
	if len(e.Headers()) != int(e.Height()) {
		t.Error("Headers accessor broken")
	}
}

func TestIndexDefinitionsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, Config{Dir: dir, HistogramDepth: 10})
	seedDonation(t, e, 20, 5)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("", "senid"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := testEngine(t, Config{Dir: dir, HistogramDepth: 10})
	if e2.CurrentView().Layered("donate", "amount") == nil {
		t.Error("layered index not replayed on reopen")
	}
	if e2.CurrentView().AuthIndex("donate", "amount") == nil || e2.CurrentView().AuthIndex("", "senid") == nil {
		t.Error("auth indexes not replayed on reopen")
	}
	// And they are functional.
	res := mustExec(t, e2, `SELECT COUNT(*) FROM donate WHERE amount BETWEEN 3 AND 7`)
	if res.Rows[0][0] != types.Int(5) {
		t.Errorf("replayed index query = %v", res.Rows[0][0])
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t, Config{})
	seedDonation(t, e, 20, 5)
	res := mustExec(t, e, `SELECT amount FROM donate ORDER BY amount DESC LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("LIMIT rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Float() != 19 || res.Rows[2][0].Float() != 17 {
		t.Errorf("ORDER BY DESC rows = %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT * FROM donate ORDER BY amount ASC LIMIT 2`)
	if res.Rows[0][6].Float() != 0 {
		t.Errorf("ORDER BY ASC first = %v", res.Rows[0])
	}
	// ORDER BY on a system column.
	res = mustExec(t, e, `SELECT tid FROM donate ORDER BY tid DESC LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Fatal("tid order failed")
	}
	// Unknown order column fails.
	if _, err := e.Execute(`SELECT amount FROM donate ORDER BY ghost`); err == nil {
		t.Error("ORDER BY missing column accepted")
	}
	// Off-chain path honours order/limit too.
	if err := createDonorInfo(e); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, `SELECT donor FROM donorinfo ORDER BY age DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0] != types.Str("carol") {
		t.Errorf("off-chain order/limit = %v", res.Rows)
	}
}
