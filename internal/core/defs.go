package core

import (
	"fmt"

	"sebdb/internal/contract"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// chainDefs is what the chain defines beside its tuples: tables, from
// _schema transactions (§IV-A: "the system sends a special transaction
// to synchronize schema"), contracts, from _contract ones (§III-B), and
// user index definitions, from _index ones (§IV-B), by id. Every node
// derives them by replaying the same transactions. The maps are
// copy-on-write, like the index maps: a definition replaces a map
// instead of changing it, so a published view shares the maps current
// at publish time. The engine's copy is written only under e.mu, through
// installDefs, and read through the view.
type chainDefs struct {
	tables    map[string]*schema.Table
	contracts map[string]*contract.Contract
	indexes   map[string]*indexDef
}

// resolve is the one scan of a block for reserved-table transactions.
// It returns d with the definitions of txs' _schema, _contract and
// _index transactions added, in order; an index definition is held to
// the tables defined where it stands (indexDef.check). Other
// transactions are ignored, and a re-definition identical to one d or an
// earlier transaction holds changes nothing; a payload that fails to
// decode or check, or a definition that conflicts with either, is an
// error. d itself is not changed: the caller installs the result once
// the block carrying txs is chain state, so a bad definition refuses its
// block before anything is written.
func (d chainDefs) resolve(txs []*types.Transaction) (chainDefs, error) {
	for _, tx := range txs {
		var err error
		switch tx.Tname {
		case schema.MetaTable:
			var t *schema.Table
			if t, err = schema.DecodeDDL(tx.Args); err == nil {
				d, err = d.withTable(t)
			}
		case contract.MetaTable:
			var c *contract.Contract
			if c, err = contract.DecodeDeploy(tx.Args); err == nil {
				d, err = d.withContract(c)
			}
		case indexTable:
			var x *indexDef
			if x, err = decodeIndexRecord(tx.Args, d.tables); err == nil {
				d, err = d.withIndex(x)
			}
		}
		if err != nil {
			return chainDefs{}, err
		}
	}
	return d, nil
}

// definesAny reports whether txs hold a reserved-table transaction —
// one resolve would read.
func definesAny(txs []*types.Transaction) bool {
	for _, tx := range txs {
		switch tx.Tname {
		case schema.MetaTable, contract.MetaTable, indexTable:
			return true
		}
	}
	return false
}

// withTable returns d with t defined. Re-defining an identical table
// returns d as it is; a different table under the same name is an error.
func (d chainDefs) withTable(t *schema.Table) (chainDefs, error) {
	var err error
	d.tables, err = define(d.tables, t.Name, t, "schema: table %q already exists with a different definition")
	return d, err
}

// withContract returns d with c deployed, on withTable's terms.
func (d chainDefs) withContract(c *contract.Contract) (chainDefs, error) {
	var err error
	d.contracts, err = define(d.contracts, c.Name, c, "contract: %q already deployed with a different body")
	return d, err
}

// withIndex returns d with index definition x, on withTable's terms.
func (d chainDefs) withIndex(x *indexDef) (chainDefs, error) {
	var err error
	d.indexes, err = define(d.indexes, x.id(), x, "index: %q already exists with a different definition")
	return d, err
}

// define returns m with def under name — m itself when it already holds
// an equal definition — or m and the conflict error, formatted with
// name, when it holds a different one.
func define[T interface{ Equal(T) bool }](m map[string]T, name string, def T, conflict string) (map[string]T, error) {
	old, ok := m[name]
	switch {
	case !ok:
		return withEntry(m, name, def), nil
	case !old.Equal(def):
		return m, fmt.Errorf(conflict, name)
	}
	return m, nil
}

// installDefs makes d the engine's definitions: the one place a table,
// contract or index definition becomes engine state, whether a block
// defined it, a checkpoint restored it or submitDDL registered it ahead
// of its block. built register the indexes for the definitions d adds
// that no registered index serves, already fed every block below the one
// that defines them (buildIndexes). Callers hold e.mu exclusively, or
// own the engine during Open.
func (e *Engine) installDefs(d chainDefs, built []func()) {
	e.defs = d
	for _, register := range built {
		register()
		e.idxEpoch++
	}
}
