package main

import (
	"fmt"
	"math/rand/v2"

	"sebdb/internal/rdbms"
	"sebdb/internal/types"
)

// The output-correctness oracle: the generated tuples live in a bare
// internal/rdbms instance, and every statement the generator will send
// gets its expected row count and row digest from there before the run
// starts. A reply that disagrees is a failed request.

// Oracle holds the base chain's tuples as plain relational rows
// [tid, ts, senid, tname, application columns...], which is the row
// shape SELECT * returns.
type Oracle struct {
	db *rdbms.DB
	ds *Dataset
}

var oracleTables = map[string][]rdbms.Column{
	"donate":     appCols("donor", "project"),
	"transfer":   appCols("project", "donor", "organization"),
	"distribute": appCols("project", "donor", "organization", "donee"),
}

// appCols prepends the system columns and appends the decimal amount
// every table ends with.
func appCols(strs ...string) []rdbms.Column {
	cols := []rdbms.Column{
		{Name: "tid", Kind: types.KindInt}, {Name: "ts", Kind: types.KindTimestamp},
		{Name: "senid", Kind: types.KindString}, {Name: "tname", Kind: types.KindString},
	}
	for _, s := range strs {
		cols = append(cols, rdbms.Column{Name: s, Kind: types.KindString})
	}
	return append(cols, rdbms.Column{Name: "amount", Kind: types.KindDecimal})
}

// NewOracle loads a built dataset (Tids assigned) into the RDBMS.
func NewOracle(ds *Dataset) (*Oracle, error) {
	db := rdbms.New()
	for name, cols := range oracleTables {
		if err := db.CreateTable(name, cols); err != nil {
			return nil, err
		}
	}
	for _, txs := range ds.Blocks {
		for _, tx := range txs {
			if err := db.Insert(tx.Tname, txRow(tx)); err != nil {
				return nil, err
			}
		}
	}
	for name := range oracleTables {
		if err := db.CreateIndex(name, "ts"); err != nil {
			return nil, err
		}
	}
	if err := db.CreateIndex("donate", "amount"); err != nil {
		return nil, err
	}
	return &Oracle{db: db, ds: ds}, nil
}

// txRow renders a transaction the way SELECT * does.
func txRow(tx *types.Transaction) rdbms.Row {
	row := make(rdbms.Row, 0, 4+len(tx.Args))
	row = append(row, types.Int(int64(tx.Tid)), types.Time(tx.Ts), types.Str(tx.SenID), types.Str(tx.Tname))
	return append(row, tx.Args...)
}

// Answer is what a reply is checked against: the number of rows and an
// order-independent digest of their contents.
type Answer struct {
	Rows   int
	Digest uint64
}

// rowDigest is FNV-64a over the row's wire encoding, written out because
// the generator digests every row of every reply on the cores it shares
// with the server.
func rowDigest(row []types.Value) uint64 {
	e := types.NewEncoder(128)
	e.Values(row)
	h := uint64(14695981039346656037)
	for _, b := range e.Bytes() {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// DigestRows folds rows into an Answer; the sum of row hashes does not
// depend on row order, which differs between access paths.
func DigestRows(rows [][]types.Value) Answer {
	a := Answer{Rows: len(rows)}
	for _, r := range rows {
		a.Digest += rowDigest(r)
	}
	return a
}

// DigestTxs is DigestRows over verified transactions (thin-client replies).
func DigestTxs(txs []*types.Transaction) Answer {
	a := Answer{Rows: len(txs)}
	for _, tx := range txs {
		a.Digest += rowDigest(txRow(tx))
	}
	return a
}

func (o *Oracle) amountRange(lo, hi int) (Answer, error) {
	rows, err := o.db.SelectRange("donate", "amount", types.Int(int64(lo)), types.Int(int64(hi)))
	return DigestRows(rows), err
}

func (o *Oracle) window(table string, b0, b1 int) ([]rdbms.Row, error) {
	return o.db.SelectRange(table, "ts", types.Time(BlockTs(b0)), types.Time(BlockTs(b1)))
}

// StmtKind names the statement shapes the workloads mix.
type StmtKind int

const (
	NarrowQ4  StmtKind = iota // SELECT * FROM donate WHERE amount BETWEEN, banded region
	GetBlock                  // GET BLOCK ID=
	Trace2D                   // TRACE [window] OPERATOR, OPERATION
	WideQ4                    // BETWEEN in the scattered region: one row per block touched
	DonorScan                 // unindexed equality over a window of blocks
	JoinQ5                    // windowed on-chain join
	AuthRange                 // thin-client authenticated range query (VO + digest)
	numReadKinds
)

var kindNames = [...]string{"narrow_q4", "get_block", "trace_2d", "wide_q4", "donor_scan", "join_q5", "auth_range"}

func (k StmtKind) String() string { return kindNames[k] }

// Stmt is one generated read with its expected answer.
type Stmt struct {
	Kind   StmtKind
	SQL    string // empty for AuthRange
	Lo, Hi int    // AuthRange bounds on donate.amount
	Want   Answer
}

// genStmt draws one statement of the given kind and asks the oracle for
// its answer.
func (o *Oracle) genStmt(kind StmtKind, rng *rand.Rand) (Stmt, error) {
	sz := o.ds.Size
	st := Stmt{Kind: kind}
	var err error
	switch kind {
	case NarrowQ4, AuthRange:
		// Anchor the range inside some block's band so it is never empty.
		b := rng.IntN(sz.Blocks)
		width := 140 // about 20 rows
		if kind == AuthRange {
			width = 350 // about 50 rows
		}
		lo := int(o.ds.Blocks[b][firstDonate(o.ds.Blocks[b])].Args[2].F)
		if lo >= scatterLo {
			lo = rng.IntN(bandSpan - bandWidth)
		}
		st.Lo, st.Hi = lo, lo+width
		if kind == NarrowQ4 {
			st.SQL = fmt.Sprintf("SELECT * FROM donate WHERE amount BETWEEN %d AND %d", st.Lo, st.Hi)
		}
		st.Want, err = o.amountRange(st.Lo, st.Hi)
	case WideQ4:
		// Scattered rows are about 14 per block over scatterSpan; the
		// width asks for roughly 15 of them, each in a different block.
		width := 15 * scatterSpan / (14 * sz.Blocks)
		lo := scatterLo + rng.IntN(scatterSpan*8/10-width)
		st.SQL = fmt.Sprintf("SELECT * FROM donate WHERE amount BETWEEN %d AND %d", lo, lo+width)
		st.Want, err = o.amountRange(lo, lo+width)
	case GetBlock:
		// Skewed toward recent blocks; block 0 is the schema block.
		back := int(rand.NewZipf(rng, 1.3, 4, uint64(sz.Blocks-1)).Uint64())
		h := o.ds.Headers[sz.Blocks-back]
		hash := h.Hash()
		st.SQL = fmt.Sprintf("GET BLOCK ID=%d", h.Height)
		st.Want = DigestRows([][]types.Value{{
			types.Int(int64(h.Height)), types.Time(h.Timestamp), types.Int(int64(h.TxCount)),
			types.Int(int64(h.FirstTid)), types.Str(fmt.Sprintf("%x", hash[:8])),
			types.Str(fmt.Sprintf("%x", h.PrevHash[:8])), types.Str(h.Signer),
		}})
	case Trace2D:
		b0 := rng.IntN(sz.Blocks - 8)
		sender := o.ds.SenderRank[rng.IntN(4)]
		st.SQL = fmt.Sprintf(`TRACE [%d, %d] OPERATOR = "%s", OPERATION = "transfer"`,
			BlockTs(b0), BlockTs(b0+7), sender)
		var rows []rdbms.Row
		if rows, err = o.window("transfer", b0, b0+7); err == nil {
			var out [][]types.Value
			for _, r := range rows {
				if r[2].S == sender {
					out = append(out, r[:4])
				}
			}
			st.Want = DigestRows(out)
		}
	case DonorScan:
		b0 := rng.IntN(sz.Blocks - 15)
		donor := fmt.Sprintf("donor%05d", rng.IntN(sz.Donors))
		st.SQL = fmt.Sprintf(`SELECT * FROM donate WHERE donor = "%s" WINDOW [%d, %d]`,
			donor, BlockTs(b0), BlockTs(b0+14))
		var rows []rdbms.Row
		if rows, err = o.window("donate", b0, b0+14); err == nil {
			var out [][]types.Value
			for _, r := range rows {
				if r[4].S == donor {
					out = append(out, r)
				}
			}
			st.Want = DigestRows(out)
		}
	case JoinQ5:
		b0 := rng.IntN(sz.Blocks - 1)
		st.SQL = fmt.Sprintf("SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization WINDOW [%d, %d]",
			BlockTs(b0), BlockTs(b0+1))
		var left, right []rdbms.Row
		if left, err = o.window("transfer", b0, b0+1); err != nil {
			break
		}
		if right, err = o.window("distribute", b0, b0+1); err != nil {
			break
		}
		var out [][]types.Value
		for _, l := range left {
			for _, r := range right {
				if l[6].S == r[6].S {
					out = append(out, append(append([]types.Value(nil), l...), r...))
				}
			}
		}
		st.Want = DigestRows(out)
	}
	return st, err
}

func firstDonate(txs []*types.Transaction) int {
	for i, tx := range txs {
		if tx.Tname == "donate" {
			return i
		}
	}
	return 0
}

// Mix is a workload's read mix: kinds and their weights in percent.
type Mix []struct {
	Kind   StmtKind
	Weight int
}

// Pool draws n statements from the mix. The workloads cycle through the
// pool in order, so the pool is also the statement stream: the same seed
// gives the same stream, and repeats are what lets a cache fill.
func (o *Oracle) Pool(mix Mix, n int, seed int64) ([]Stmt, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9001))
	pool := make([]Stmt, 0, n)
	for len(pool) < n {
		p := rng.IntN(100)
		for _, m := range mix {
			if p -= m.Weight; p < 0 {
				st, err := o.genStmt(m.Kind, rng)
				if err != nil {
					return nil, err
				}
				pool = append(pool, st)
				break
			}
		}
	}
	return pool, nil
}

// insertRow is the i-th generated Q1 tuple. Its amount lies above every
// queried range and its donor name matches no generated donor, so
// inserted rows change no expected answer.
func insertRow(seed int64, i int) (donor string, amount int) {
	return fmt.Sprintf("ingest%d-%07d", seed, i), fillerLo + i%fillerSpan
}

// InsertSQL is the i-th generated Q1 statement.
func InsertSQL(seed int64, i int) string {
	donor, amount := insertRow(seed, i)
	return fmt.Sprintf(`INSERT INTO donate VALUES ("%s", "education", %d)`, donor, amount)
}

// insertArgBytes is the encoded argument size of one generated INSERT;
// it is the same for every i below ten million.
func insertArgBytes(seed int64) int64 {
	donor, amount := insertRow(seed, 0)
	e := types.NewEncoder(64)
	e.Values([]types.Value{types.Str(donor), types.Str("education"), types.Dec(float64(amount))})
	return int64(e.Len())
}
