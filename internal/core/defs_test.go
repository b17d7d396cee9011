package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/contract"
	"sebdb/internal/exec"
	"sebdb/internal/obs"
	"sebdb/internal/schema"
	"sebdb/internal/snapshot"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

func emptyDefs() chainDefs {
	return chainDefs{tables: map[string]*schema.Table{}, contracts: map[string]*contract.Contract{}, indexes: map[string]*indexDef{}}
}

func testTable(t *testing.T, name string, cols ...schema.Column) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable(name, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func testContract(t *testing.T, name, stmt string) *contract.Contract {
	t.Helper()
	c, err := contract.Parse(name, []string{stmt})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWithDefinition: re-defining an identical table or contract
// changes nothing, a different one under the same name is refused, and
// a new one leaves the maps it was derived from as they were.
func TestWithDefinition(t *testing.T) {
	donate := testTable(t, "donate", schema.Column{Name: "amount", Kind: types.KindDecimal})
	give := testContract(t, "give", `SELECT * FROM t`)
	d0 := emptyDefs()
	d1, err := d0.withTable(donate)
	if err != nil {
		t.Fatal(err)
	}
	if d1, err = d1.withContract(give); err != nil {
		t.Fatal(err)
	}
	if len(d0.tables) != 0 || len(d0.contracts) != 0 {
		t.Errorf("defining changed the maps it started from: %d tables, %d contracts", len(d0.tables), len(d0.contracts))
	}
	same, err := d1.withTable(testTable(t, "DONATE", schema.Column{Name: "Amount", Kind: types.KindDecimal}))
	if err != nil {
		t.Errorf("identical table re-defined: %v", err)
	}
	if same, err = same.withContract(testContract(t, "Give", `SELECT * FROM t`)); err != nil {
		t.Errorf("identical contract re-deployed: %v", err)
	}
	if !reflect.DeepEqual(same, d1) {
		t.Error("identical re-definitions changed the definitions")
	}
	if _, err := d1.withTable(testTable(t, "donate", schema.Column{Name: "x", Kind: types.KindInt})); err == nil {
		t.Error("conflicting table accepted")
	}
	if _, err := d1.withContract(testContract(t, "give", `SELECT * FROM other`)); err == nil {
		t.Error("conflicting contract accepted")
	}
}

// TestResolveDefs: the one resolve loop decodes a block's _schema and
// _contract transactions, ignores every other one, skips identical
// re-definitions, and refuses a malformed payload or a definition that
// conflicts with the engine's or an earlier transaction's — without
// changing the definitions it resolves against.
func TestResolveDefs(t *testing.T) {
	donate := testTable(t, "donate", schema.Column{Name: "amount", Kind: types.KindDecimal})
	give := testContract(t, "give", `SELECT * FROM t`)
	ddl := &types.Transaction{Tname: schema.MetaTable, Args: donate.EncodeDDL()}
	deploy := &types.Transaction{Tname: contract.MetaTable, Args: give.EncodeDeploy()}
	tuple := &types.Transaction{Tname: "donate", Args: []types.Value{types.Dec(1)}}

	d0 := emptyDefs()
	d1, err := d0.resolve([]*types.Transaction{tuple, ddl, deploy, ddl, deploy})
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.tables) != 1 || !d1.tables["donate"].Equal(donate) || len(d1.contracts) != 1 || !d1.contracts["give"].Equal(give) {
		t.Fatalf("resolved %v tables, %v contracts", d1.tables, d1.contracts)
	}
	if len(d0.tables) != 0 || len(d0.contracts) != 0 {
		t.Error("resolve changed the definitions it resolved against")
	}
	// Already defined identically: nothing left to do.
	if again, err := d1.resolve([]*types.Transaction{ddl, deploy}); err != nil || !reflect.DeepEqual(again, d1) {
		t.Errorf("re-resolve = %v, %v", again, err)
	}
	otherTable := &types.Transaction{Tname: schema.MetaTable, Args: testTable(t, "donate", schema.Column{Name: "x", Kind: types.KindInt}).EncodeDDL()}
	otherBody := &types.Transaction{Tname: contract.MetaTable, Args: testContract(t, "give", `SELECT * FROM other`).EncodeDeploy()}
	for name, c := range map[string]struct {
		d   chainDefs
		txs []*types.Transaction
	}{
		"malformed schema payload":     {d0, []*types.Transaction{{Tname: schema.MetaTable, Args: []types.Value{types.Int(1)}}}},
		"malformed deployment payload": {d0, []*types.Transaction{{Tname: contract.MetaTable, Args: []types.Value{types.Int(1)}}}},
		"table conflicts with defined": {d1, []*types.Transaction{otherTable}},
		"table conflicts in the batch": {d0, []*types.Transaction{ddl, otherTable}},
		"body conflicts with deployed": {d1, []*types.Transaction{otherBody}},
		"body conflicts in the batch":  {d0, []*types.Transaction{deploy, otherBody}},
	} {
		if _, err := c.d.resolve(c.txs); err == nil {
			t.Errorf("%s: resolved", name)
		}
	}
}

// TestCheckpointFrameDeterministicWithContracts: on a chain with
// contracts deployed out of name order, building the frame again over an
// unchanged engine gives the same bytes, and so does a full-replay
// reopen, which defines every contract from its record.
func TestCheckpointFrameDeterministicWithContracts(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 4, Clock: clock.Fixed(1)}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 8, 4)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("give%d", (i*5)%8)
		if err := e.DeployContract("org1", name, []string{`INSERT INTO donate ($sender, $1, $2)`}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := func(e *Engine) []byte {
		t.Helper()
		c, err := e.BuildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return c.Encode()
	}
	want := frame(e)
	for i := 1; i < 20; i++ {
		if got := frame(e); !bytes.Equal(got, want) {
			t.Fatalf("build %d encodes a different frame over the unchanged engine", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.DisableCheckpointLoad = true
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := frame(r); !bytes.Equal(got, want) {
		t.Error("the full replay encodes a different frame")
	}
	if got := r.CurrentView().ContractNames(); !reflect.DeepEqual(got, []string{"give0", "give1", "give2", "give3", "give4", "give5", "give6", "give7"}) {
		t.Errorf("ContractNames = %v", got)
	}
}

// nanChain is ROADMAP item 16's fixture: the donate table, then 8
// blocks of 10 rows with amounts 10, 20, …, 100, and a layered index on
// amount with a depth-4 histogram, created after block 2. Before block 3
// lands, nan tries to put a NaN amount on the chain in the place of its
// 70.
func nanChain(t *testing.T, nan func(e *Engine) error) *Engine {
	t.Helper()
	e := testEngine(t, Config{BlockMaxTxs: 10, HistogramDepth: 4, Clock: clock.Fixed(1)})
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if b == 3 {
			if err := e.CreateIndex("donate", "amount"); err != nil {
				t.Fatal(err)
			}
			height, want := e.Height(), nanFingerprint(t, e)
			if err := nan(e); err == nil {
				t.Fatal("a NaN amount was accepted")
			}
			if err := e.FlushAt(int64(b+2) * 1000); err != nil {
				t.Fatal(err)
			}
			if e.Height() != height || uint64(e.store.Count()) != height {
				t.Fatalf("refused NaN moved the chain: height %d, store %d, want %d", e.Height(), e.store.Count(), height)
			}
			if got := nanFingerprint(t, e); got != want {
				t.Fatalf("refused NaN changed the indexes:\n%s---\n%s", got, want)
			}
		}
		batch := make([]*types.Transaction, 10)
		for i := range batch {
			tx, err := e.NewTransaction("org0", "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%d", i)), types.Str("edu"), types.Dec(float64(10 * (i + 1))),
			})
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = tx
		}
		if _, err := e.CommitBlock(batch, int64(b+2)*1000); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// nanFingerprint summarises the state a refused block must not touch:
// the height and the indexes.
func nanFingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	v := e.CurrentView()
	s := fmt.Sprintf("height %d, last tid %d, donate blocks %d\n", v.Height(), v.LastTid(), v.TableBlocks("donate").Count())
	for _, key := range sortedKeys(v.lidx) {
		s += fmt.Sprintf("%s: %d blocks\n", key, v.lidx[key].Blocks())
	}
	return s
}

// TestNaNRefusedAtTheDoor: a decimal NaN is refused by INSERT, as a
// literal and as a prepared parameter, and by CommitBlock and the
// ApplyBlock of a signed block, leaving height and indexes untouched.
// With every NaN refused, scan, bitmap and layered give ROADMAP item
// 16's no-NaN column. ±Inf stay legal.
func TestNaNRefusedAtTheDoor(t *testing.T) {
	nanTx := func(e *Engine) *types.Transaction {
		return &types.Transaction{Ts: 1, SenID: "mallory", Tname: "donate",
			Args: []types.Value{types.Str("d"), types.Str("p"), types.Dec(math.NaN())}}
	}
	doors := map[string]func(e *Engine) error{
		"INSERT literal": func(e *Engine) error {
			_, err := e.Execute(`INSERT INTO donate VALUES ("d", "p", "NaN")`)
			return err
		},
		"INSERT parameter": func(e *Engine) error {
			_, err := e.Execute(`INSERT INTO donate VALUES ("d", "p", ?)`, types.Dec(math.NaN()))
			return err
		},
		"CommitBlock": func(e *Engine) error {
			_, err := e.CommitBlock([]*types.Transaction{nanTx(e)}, 3500)
			return err
		},
		"ApplyBlock": func(e *Engine) error {
			return e.ApplyBlock(e.prepareBlock([]*types.Transaction{nanTx(e)}, 3500))
		},
	}
	preds := func(sql string) []sqlparser.Pred {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*sqlparser.Select).Where
	}
	queries := []struct {
		where string
		want  int
	}{
		{`amount BETWEEN 20 AND 40`, 24},
		{`amount = 50`, 8},
		{`amount BETWEEN 61 AND 69`, 0},
		{`amount BETWEEN 90 AND 100`, 16},
	}
	for door, nan := range doors {
		t.Run(door, func(t *testing.T) {
			e := nanChain(t, nan)
			v := e.CurrentView()
			for _, q := range queries {
				for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
					txs, _, err := exec.Select(v, "donate", preds(`SELECT * FROM donate WHERE `+q.where), nil, m)
					if err != nil {
						t.Fatal(err)
					}
					if len(txs) != q.want {
						t.Errorf("%s by %v: %d rows, want %d", q.where, m, len(txs), q.want)
					}
				}
			}
		})
	}

	e := testEngine(t, Config{})
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	mustExec(t, e, `INSERT INTO donate VALUES ("d", "p", "Inf")`)
	mustExec(t, e, `INSERT INTO donate VALUES ("d", "p", ?)`, types.Dec(math.Inf(-1)))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, e, `SELECT * FROM donate`); len(res.Rows) != 2 {
		t.Errorf("%d rows after inserting ±Inf, want 2", len(res.Rows))
	}
}

// TestRestoreRefusesIndexesOffTheChain: a checkpoint frame must hold
// exactly the user indexes the chain's _index records define. One with
// an index the chain does not define — as a build that kept definitions
// off the chain wrote them — or without one the chain defines is refused
// before anything is restored; the frame as written restores.
func TestRestoreRefusesIndexesOffTheChain(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4})
	seedDonation(t, e, 16, 4)
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	c, err := e.BuildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	offChain := c.ALIs[0]
	offChain.Key = ".senid"
	for name, alis := range map[string][]snapshot.IndexState{
		"an index the chain does not define": {c.ALIs[0], offChain},
		"no index for the chain's record":    nil,
	} {
		bad := *c
		bad.ALIs = alis
		if err := newEngine(e.cfg, e.store, e.snapDir).restoreCheckpoint(&bad); err == nil {
			t.Errorf("restored a frame with %s", name)
		}
	}
	if err := newEngine(e.cfg, e.store, e.snapDir).restoreCheckpoint(c); err != nil {
		t.Errorf("the frame as written: %v", err)
	}
}

// TestCheckpointHoldsNoUnflushedDefinitions: a table or contract
// submitDDL registered while its _schema or _contract transaction is
// still in the mempool is engine state, not chain state. A checkpoint
// cut then must not make it chain state on reopen: the checkpoint
// restore and a full replay both lack it, answer alike and encode the
// same frame.
func TestCheckpointHoldsNoUnflushedDefinitions(t *testing.T) {
	for name, define := range map[string]func(e *Engine) error{
		"table": func(e *Engine) error {
			_, err := e.Execute(`CREATE ghost (x int)`)
			return err
		},
		"contract": func(e *Engine) error {
			return e.DeployContract("org1", "ghost", []string{`INSERT INTO donate ($sender, $1, $2)`})
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 64, Clock: clock.Fixed(1)}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
			if err := e.FlushAt(1); err != nil {
				t.Fatal(err)
			}
			if err := define(e); err != nil {
				t.Fatal(err)
			}
			tx, err := e.NewTransaction("org1", "donate", []types.Value{types.Str("donor003"), types.Str("education"), types.Dec(7)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CommitBlock([]*types.Transaction{tx}, 2000); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			var fingerprints []string
			var frames [][]byte
			for _, disable := range []bool{false, true} {
				reg := obs.NewRegistry(clock.UnixMicro)
				cfg.Obs, cfg.DisableCheckpointLoad = reg, disable
				r, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if suffix := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); !disable && suffix != 0 {
					t.Fatalf("the checkpoint reopen replayed %d blocks", suffix)
				}
				v := r.CurrentView()
				_, noContract := v.Contract("ghost")
				if v.HasTable("ghost") || noContract == nil {
					t.Errorf("DisableCheckpointLoad=%v: the unflushed %s is defined after reopen", disable, name)
				}
				c, err := r.BuildCheckpoint()
				if err != nil {
					t.Fatal(err)
				}
				fingerprints = append(fingerprints, recoveryFingerprint(t, r))
				frames = append(frames, c.Encode())
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if fingerprints[0] != fingerprints[1] {
				t.Errorf("checkpoint reopen:\n%s--- full replay:\n%s", fingerprints[0], fingerprints[1])
			}
			if !bytes.Equal(frames[0], frames[1]) {
				t.Error("the checkpoint reopen and the full replay encode different frames")
			}
		})
	}
}

// TestDefinitionsRace defines tables and contracts while other
// goroutines insert and invoke through the view, create indexes and
// build checkpoints. Under -race it checks that the definition maps are
// written only under e.mu and read elsewhere only through views. Two of
// the goroutines create the same index at once: the chain must get one
// record, and neither creation may fail a block.
func TestDefinitionsRace(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Parallelism: 4})
	seedDonation(t, e, 8, 4)
	give := []string{`INSERT INTO donate ($sender, $1, $2)`}
	if err := e.DeployContract("org1", "give", give); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	steps := []func(i int) error{
		func(i int) error {
			_, err := e.Execute(fmt.Sprintf(`CREATE t%d (a decimal)`, i))
			return err
		},
		func(i int) error { return e.DeployContract("org1", fmt.Sprintf("c%d", i), give) },
		func(i int) error {
			if _, err := e.Execute(`INSERT INTO donate ("d", "p", 1)`); err != nil {
				return err
			}
			_, err := e.InvokeContract("org2", "give", types.Str("p"), types.Dec(2))
			return err
		},
		func(i int) error {
			if i == rounds/2 {
				if err := e.CreateIndex("donate", "amount"); err != nil {
					return err
				}
			}
			_, err := e.BuildCheckpoint()
			return err
		},
		func(i int) error {
			if i == rounds/2 {
				return e.CreateIndex("donate", "amount")
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	for _, step := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	v := e.CurrentView()
	records := 0
	for h := uint64(0); h < v.Height(); h++ {
		b, err := e.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range b.Txs {
			if tx.Tname == indexTable {
				records++
			}
		}
	}
	if records != 1 || v.Layered("donate", "amount") == nil {
		t.Errorf("the chain holds %d index records", records)
	}
	for i := 0; i < rounds; i++ {
		if !v.HasTable(fmt.Sprintf("t%d", i)) {
			t.Errorf("table t%d missing", i)
		}
		if _, err := v.Contract(fmt.Sprintf("c%d", i)); err != nil {
			t.Error(err)
		}
	}
}
