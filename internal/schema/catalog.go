package schema

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"sebdb/internal/types"
)

// Catalog is the node-local registry of table schemas. DDL reaches the
// catalog in two ways: locally via CreateTable before the schema
// transaction is packaged, and remotely via Resolve + Define when a
// block containing a MetaTable transaction is installed or replayed.
//
// The table map is copy-on-write: Define and Undefine replace it and
// never change it in place, so Snapshot hands out the current map
// without copying it.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Define registers a table. It fails if a different definition is
// already registered under the same name; re-registering an identical
// definition is a no-op (schema replay is idempotent).
func (c *Catalog) Define(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.tables[t.Name]; ok {
		if sameTable(old, t) {
			return nil
		}
		return errConflict(t)
	}
	tables := maps.Clone(c.tables)
	tables[t.Name] = t
	c.tables = tables
	return nil
}

func errConflict(t *Table) error {
	return fmt.Errorf("schema: table %q already exists with a different definition", t.Name)
}

func sameTable(a, b *Table) bool {
	if a.Name != b.Name || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	return true
}

// Undefine removes a table registration. It exists for one caller:
// CreateTable registers the table locally before the schema transaction
// is submitted, and must roll that registration back when the submit
// fails — otherwise the node's catalog diverges from the chain forever.
func (c *Catalog) Undefine(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tables := maps.Clone(c.tables)
	delete(tables, strings.ToLower(name))
	c.tables = tables
}

// Snapshot returns the catalog's table map as of now, keyed like the
// internal map. Later Define/Undefine calls replace the catalog's map
// and leave this one as it is; tables are immutable once defined. The
// map is shared: callers must not modify it.
func (c *Catalog) Snapshot() map[string]*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables
}

// Lookup returns the table named name.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("schema: no such table %q", name)
	}
	return t, nil
}

// Has reports whether a table exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Names lists the registered table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve decodes the schema transactions among txs (§IV-A: "The
// system sends a special transaction to synchronize schema") and
// returns, in order, the tables they define that the catalog does not
// hold yet. Other transactions are ignored and a re-definition
// identical to the catalog's or to an earlier transaction's is skipped;
// a payload that fails to decode, or a definition that conflicts with
// either, is an error. The catalog itself is not changed: the caller
// Defines the result once the block carrying txs is chain state, so a
// bad schema transaction can refuse its block before anything is
// written.
func (c *Catalog) Resolve(txs []*types.Transaction) ([]*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Table
	for _, tx := range txs {
		if tx.Tname != MetaTable {
			continue
		}
		t, err := DecodeDDL(tx.Args)
		if err != nil {
			return nil, err
		}
		old, ok := c.tables[t.Name]
		for i := 0; !ok && i < len(out); i++ {
			if out[i].Name == t.Name {
				old, ok = out[i], true
			}
		}
		switch {
		case !ok:
			out = append(out, t)
		case !sameTable(old, t):
			return nil, errConflict(t)
		}
	}
	return out, nil
}

// CheckTuples reports the first transaction among txs that belongs to
// a table — one the catalog holds, or one of pending, the tables the
// same block defines — without being a tuple of it (Table.CheckArgs).
// Transactions of any other type are not tuples and pass. The engine
// asks before a block is appended: indexes read columns by position,
// so a short or mistyped tuple must be refused while the block still
// can be.
func (c *Catalog) CheckTuples(txs []*types.Transaction, pending []*Table) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, tx := range txs {
		t, ok := c.tables[tx.Tname]
		for i := 0; !ok && i < len(pending); i++ {
			t, ok = pending[i], pending[i].Name == tx.Tname
		}
		if !ok {
			continue
		}
		if err := t.CheckArgs(tx.Args); err != nil {
			return err
		}
	}
	return nil
}
