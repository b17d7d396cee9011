package core

import (
	"fmt"

	"sebdb/internal/contract"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// chainDefs is what the chain defines beside its tuples: tables, from
// _schema transactions (§IV-A: "the system sends a special transaction
// to synchronize schema"), and contracts, from _contract ones (§III-B).
// Every node derives them by replaying the same transactions. Both maps
// are copy-on-write, like the index maps: a definition replaces a map
// instead of changing it, so a published view shares the maps current
// at publish time. The engine's copy is written only under e.mu, through
// installDefs, and read through the view.
type chainDefs struct {
	tables    map[string]*schema.Table
	contracts map[string]*contract.Contract
}

// resolve is the one scan of a block for reserved-table transactions.
// It returns d with the definitions of txs' _schema and _contract
// transactions added, in order. Other transactions are ignored, and a
// re-definition identical to one d or an earlier transaction holds
// changes nothing; a payload that fails to decode, or a definition that
// conflicts with either, is an error. d itself is not changed: the
// caller installs the result once the block carrying txs is chain
// state, so a bad definition refuses its block before anything is
// written.
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
		}
		if err != nil {
			return chainDefs{}, err
		}
	}
	return d, nil
}

// withTable returns d with t defined. Re-defining an identical table
// returns d as it is; a different table under the same name is an error.
func (d chainDefs) withTable(t *schema.Table) (chainDefs, error) {
	tables, ok := define(d.tables, t.Name, t)
	if !ok {
		return d, fmt.Errorf("schema: table %q already exists with a different definition", t.Name)
	}
	d.tables = tables
	return d, nil
}

// withContract returns d with c deployed, on withTable's terms.
func (d chainDefs) withContract(c *contract.Contract) (chainDefs, error) {
	contracts, ok := define(d.contracts, c.Name, c)
	if !ok {
		return d, fmt.Errorf("contract: %q already deployed with a different body", c.Name)
	}
	d.contracts = contracts
	return d, nil
}

// define returns m with def under name — m itself when it already holds
// an equal definition — or false when m holds a different one.
func define[T interface{ Equal(T) bool }](m map[string]T, name string, def T) (map[string]T, bool) {
	if old, ok := m[name]; ok {
		return m, old.Equal(def)
	}
	return withEntry(m, name, def), true
}

// installDefs makes d the engine's definitions: the one place a table or
// contract becomes engine state, whether a block defined it, a
// checkpoint restored it or submitDDL registered it ahead of its block.
// Callers hold e.mu exclusively, or own the engine during Open.
func (e *Engine) installDefs(d chainDefs) { e.defs = d }
