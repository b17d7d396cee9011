// Package rdbms is SEBDB's off-chain data substrate: a small embedded
// relational engine standing in for the local MySQL instance the paper
// attaches to each node (§IV-A, §V-C). It provides exactly the surface
// the on-off-chain join and the benchmark need — typed tables, row
// predicates, secondary B+-tree indexes, ordered retrieval, min/max and
// distinct-value queries — behind an interface the executor treats as
// its ODBC/JDBC stand-in.
package rdbms

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sebdb/internal/rdbms/bptree"
	"sebdb/internal/types"
)

// Column is one attribute of an off-chain table.
type Column struct {
	Name string
	Kind types.Kind
}

// Row is one tuple, in column order.
type Row = []types.Value

// table is the heap storage plus optional secondary indexes.
type table struct {
	name    string
	cols    []Column
	rows    []Row
	indexes map[string]*bptree.Tree // column name -> tree of row ids
}

// DB is an embedded relational database: the node-local RDBMS that
// stores private, off-chain data.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable registers a new off-chain table.
func (db *DB) CreateTable(name string, cols []Column) error {
	name = strings.ToLower(name)
	if name == "" || len(cols) == 0 {
		return fmt.Errorf("rdbms: table needs a name and columns")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("rdbms: table %q already exists", name)
	}
	t := &table{name: name, indexes: make(map[string]*bptree.Tree)}
	seen := map[string]bool{}
	for _, c := range cols {
		cn := strings.ToLower(c.Name)
		if cn == "" || seen[cn] {
			return fmt.Errorf("rdbms: bad column %q in table %q", c.Name, name)
		}
		seen[cn] = true
		t.cols = append(t.cols, Column{Name: cn, Kind: c.Kind})
	}
	db.tables[name] = t
	return nil
}

// Tables lists table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasTable reports whether name exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[strings.ToLower(name)]
	return ok
}

// Columns returns the column definitions of a table.
func (db *DB) Columns(name string) ([]Column, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return nil, err
	}
	out := make([]Column, len(t.cols))
	copy(out, t.cols)
	return out, nil
}

func (db *DB) get(name string) (*table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("rdbms: no such table %q", name)
	}
	return t, nil
}

func (t *table) colIndex(name string) int {
	name = strings.ToLower(name)
	for i, c := range t.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Insert appends a row, coercing values to the column kinds and
// maintaining any secondary indexes.
func (db *DB) Insert(name string, vals Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.get(name)
	if err != nil {
		return err
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("rdbms: table %q expects %d values, got %d", t.name, len(t.cols), len(vals))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		cv, err := types.Coerce(v, t.cols[i].Kind)
		if err != nil {
			return fmt.Errorf("rdbms: column %q: %w", t.cols[i].Name, err)
		}
		row[i] = cv
	}
	rid := uint64(len(t.rows))
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		idx.Insert(row[t.colIndex(col)], rid)
	}
	return nil
}

// CreateIndex builds a secondary B+-tree index over one column.
func (db *DB) CreateIndex(name, col string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.get(name)
	if err != nil {
		return err
	}
	ci := t.colIndex(col)
	if ci < 0 {
		return fmt.Errorf("rdbms: table %q has no column %q", t.name, col)
	}
	col = strings.ToLower(col)
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	entries := make([]bptree.Entry, len(t.rows))
	for rid, r := range t.rows {
		entries[rid] = bptree.Entry{Key: r[ci], Ref: uint64(rid)}
	}
	t.indexes[col] = bptree.Bulk(entries, 0)
	return nil
}

// Pred is a row predicate.
type Pred func(Row) bool

// Eq builds a predicate comparing column col (by position) to v.
func Eq(ci int, v types.Value) Pred {
	return func(r Row) bool { return types.Equal(r[ci], v) }
}

// Between builds a predicate checking lo <= row[ci] <= hi.
func Between(ci int, lo, hi types.Value) Pred {
	return func(r Row) bool {
		return types.Compare(r[ci], lo) >= 0 && types.Compare(r[ci], hi) <= 0
	}
}

// ColIndex exposes a column's position for building predicates.
func (db *DB) ColIndex(name, col string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return 0, err
	}
	ci := t.colIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("rdbms: table %q has no column %q", t.name, col)
	}
	return ci, nil
}

// Select returns all rows satisfying every predicate (all rows when
// preds is empty). Rows are copied; callers may retain them.
func (db *DB) Select(name string, preds ...Pred) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return nil, err
	}
	var out []Row
row:
	for _, r := range t.rows {
		for _, p := range preds {
			if !p(r) {
				continue row
			}
		}
		out = append(out, append(Row(nil), r...))
	}
	return out, nil
}

// SelectRange returns rows with lo <= col <= hi, in col order, using a
// secondary index when one exists.
func (db *DB) SelectRange(name, col string, lo, hi types.Value) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return nil, err
	}
	ci := t.colIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("rdbms: table %q has no column %q", t.name, col)
	}
	if idx, ok := t.indexes[strings.ToLower(col)]; ok {
		var out []Row
		idx.Range(lo, hi, func(_ types.Value, rid uint64) bool {
			out = append(out, append(Row(nil), t.rows[rid]...))
			return true
		})
		return out, nil
	}
	var out []Row
	for _, r := range t.rows {
		if types.Compare(r[ci], lo) >= 0 && types.Compare(r[ci], hi) <= 0 {
			out = append(out, append(Row(nil), r...))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return types.Compare(out[i][ci], out[j][ci]) < 0
	})
	return out, nil
}

// negInf and posInf are sentinels below and above every real value in
// the total order defined by types.Compare (Null sorts lowest; an
// out-of-range kind tag sorts above all real kinds).
var (
	negInf = types.Null
	posInf = types.Value{Kind: types.KindTimestamp + 100}
)

// SortedBy returns all rows ordered by col — the sorted off-chain input
// of Algorithm 3's sort-merge join.
func (db *DB) SortedBy(name, col string) ([]Row, error) {
	return db.SelectRange(name, col, negInf, posInf)
}

// MinMax returns the smallest and largest value of col (Algorithm 3,
// lines 3–4); ok is false for an empty table.
func (db *DB) MinMax(name, col string) (lo, hi types.Value, ok bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return types.Null, types.Null, false, err
	}
	ci := t.colIndex(col)
	if ci < 0 {
		return types.Null, types.Null, false,
			fmt.Errorf("rdbms: table %q has no column %q", t.name, col)
	}
	if len(t.rows) == 0 {
		return types.Null, types.Null, false, nil
	}
	if idx, okIdx := t.indexes[strings.ToLower(col)]; okIdx {
		mn, _ := idx.Min()
		mx, _ := idx.Max()
		return mn, mx, true, nil
	}
	lo, hi = t.rows[0][ci], t.rows[0][ci]
	for _, r := range t.rows[1:] {
		if types.Compare(r[ci], lo) < 0 {
			lo = r[ci]
		}
		if types.Compare(r[ci], hi) > 0 {
			hi = r[ci]
		}
	}
	return lo, hi, true, nil
}

// Distinct returns the distinct values of col in sorted order
// (Algorithm 3's discrete-attribute path).
func (db *DB) Distinct(name, col string) ([]types.Value, error) {
	rows, err := db.SortedBy(name, col)
	if err != nil {
		return nil, err
	}
	ci, err := db.ColIndex(name, col)
	if err != nil {
		return nil, err
	}
	var out []types.Value
	for _, r := range rows {
		if len(out) == 0 || !types.Equal(out[len(out)-1], r[ci]) {
			out = append(out, r[ci])
		}
	}
	return out, nil
}

// Count returns the number of rows in a table.
func (db *DB) Count(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.get(name)
	if err != nil {
		return 0, err
	}
	return len(t.rows), nil
}
