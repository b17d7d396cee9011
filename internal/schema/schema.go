// Package schema implements SEBDB's relational layer over block data
// (paper §III-A): user-declared table schemas whose tuples are on-chain
// transactions, and the special schema transaction used to synchronise
// DDL among nodes. The engine keeps the tables the chain defines (see
// core.chainDefs).
package schema

import (
	"fmt"
	"math"
	"strings"

	"sebdb/internal/types"
)

// Column is one application-level attribute of a table.
type Column struct {
	// Name is the lower-cased column name.
	Name string
	// Kind is the attribute type.
	Kind types.Kind
}

// Table describes one transaction type. The system-level columns (tid,
// ts, senid, tname) are implicit and precede the application columns in
// query results.
type Table struct {
	// Name is the lower-cased table name (the Tname of its transactions).
	Name string
	// Columns are the application-level attributes, in declaration order.
	Columns []Column
}

// MetaTable is the reserved transaction type that carries schema
// definitions on chain, so every node replays the same DDL.
const MetaTable = "_schema"

// Reserved reports whether a table name is reserved for system use.
func Reserved(name string) bool { return strings.HasPrefix(name, "_") }

// NewTable validates and normalises a table definition.
func NewTable(name string, cols []Column) (*Table, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, fmt.Errorf("schema: empty table name")
	}
	if Reserved(name) {
		return nil, fmt.Errorf("schema: table name %q is reserved", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: table %q has no columns", name)
	}
	t := &Table{Name: name, Columns: make([]Column, len(cols))}
	seen := make(map[string]bool, len(cols)+len(types.SystemColumns))
	for _, s := range types.SystemColumns {
		seen[s] = true
	}
	for i, c := range cols {
		cn := strings.ToLower(strings.TrimSpace(c.Name))
		if cn == "" {
			return nil, fmt.Errorf("schema: table %q column %d has empty name", name, i)
		}
		if seen[cn] {
			return nil, fmt.Errorf("schema: table %q duplicates column %q", name, cn)
		}
		if c.Kind == types.KindNull {
			return nil, fmt.Errorf("schema: table %q column %q has no type", name, cn)
		}
		seen[cn] = true
		t.Columns[i] = Column{Name: cn, Kind: c.Kind}
	}
	return t, nil
}

// ColumnIndex returns the position of an application-level column, or
// -1 if the table has no such column.
func (t *Table) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnKind resolves the kind of any column, system or application.
// The boolean reports whether the column is system-level.
func (t *Table) ColumnKind(name string) (types.Kind, bool, error) {
	name = strings.ToLower(name)
	if k, err := types.SystemColumnKind(name); err == nil {
		return k, true, nil
	}
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Columns[i].Kind, false, nil
	}
	return types.KindNull, false, fmt.Errorf("schema: table %q has no column %q", t.Name, name)
}

// AllColumnNames lists system columns followed by application columns —
// the projection order of SELECT *.
func (t *Table) AllColumnNames() []string {
	out := make([]string, 0, len(types.SystemColumns)+len(t.Columns))
	out = append(out, types.SystemColumns...)
	for _, c := range t.Columns {
		out = append(out, c.Name)
	}
	return out
}

// ValidateArgs coerces the given values against the table's application
// columns, returning the normalised tuple.
func (t *Table) ValidateArgs(args []types.Value) ([]types.Value, error) {
	if len(args) != len(t.Columns) {
		return nil, fmt.Errorf("schema: table %q expects %d values, got %d",
			t.Name, len(t.Columns), len(args))
	}
	out := make([]types.Value, len(args))
	for i, v := range args {
		cv, err := types.Coerce(v, t.Columns[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("schema: table %q column %q: %w", t.Name, t.Columns[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// CheckArgs reports whether args is already a tuple of t — one value
// per column, each null or of the column's kind and no decimal NaN,
// which is what ValidateArgs returns — without copying it.
func (t *Table) CheckArgs(args []types.Value) error {
	if len(args) != len(t.Columns) {
		return fmt.Errorf("schema: table %q expects %d values, got %d",
			t.Name, len(t.Columns), len(args))
	}
	for i, v := range args {
		if v.Kind != t.Columns[i].Kind && v.Kind != types.KindNull {
			return fmt.Errorf("schema: table %q column %q holds %s, got %s",
				t.Name, t.Columns[i].Name, t.Columns[i].Kind, v.Kind)
		}
		if v.Kind == types.KindDecimal && math.IsNaN(v.F) {
			return fmt.Errorf("schema: table %q column %q holds NaN", t.Name, t.Columns[i].Name)
		}
	}
	return nil
}

// CheckTuples reports the first transaction among txs that belongs to
// one of tables without being a tuple of it (Table.CheckArgs).
// Transactions of any other type are not tuples and pass. The engine
// asks before a block is appended, with the tables the block leaves
// defined: indexes read columns by position, so a short or mistyped
// tuple must be refused while the block still can be.
func CheckTuples(tables map[string]*Table, txs []*types.Transaction) error {
	for _, tx := range txs {
		t, ok := tables[tx.Tname]
		if !ok {
			continue
		}
		if err := t.CheckArgs(tx.Args); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether t and u define the same table.
func (t *Table) Equal(u *Table) bool {
	if t.Name != u.Name || len(t.Columns) != len(u.Columns) {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != u.Columns[i] {
			return false
		}
	}
	return true
}

// Value extracts a named column (system or application) from a
// transaction that belongs to this table.
func (t *Table) Value(tx *types.Transaction, name string) (types.Value, error) {
	name = strings.ToLower(name)
	if v, err := tx.SystemValue(name); err != types.ErrNotSystemColumn {
		return v, err
	}
	i := t.ColumnIndex(name)
	if i < 0 {
		return types.Null, fmt.Errorf("schema: table %q has no column %q", t.Name, name)
	}
	return tx.Column(i)
}

// EncodeDDL serialises the table definition as the Args payload of a
// MetaTable transaction: [name, col1, kind1, col2, kind2, ...].
func (t *Table) EncodeDDL() []types.Value {
	out := make([]types.Value, 0, 1+2*len(t.Columns))
	out = append(out, types.Str(t.Name))
	for _, c := range t.Columns {
		out = append(out, types.Str(c.Name), types.Int(int64(c.Kind)))
	}
	return out
}

// DecodeDDL parses a MetaTable transaction payload back into a table.
func DecodeDDL(args []types.Value) (*Table, error) {
	if len(args) < 3 || len(args)%2 != 1 {
		return nil, fmt.Errorf("schema: malformed DDL payload of %d values", len(args))
	}
	if args[0].Kind != types.KindString {
		return nil, fmt.Errorf("schema: DDL table name is %s, want string", args[0].Kind)
	}
	cols := make([]Column, 0, (len(args)-1)/2)
	for i := 1; i < len(args); i += 2 {
		if args[i].Kind != types.KindString || args[i+1].Kind != types.KindInt {
			return nil, fmt.Errorf("schema: malformed DDL column at %d", i)
		}
		cols = append(cols, Column{Name: args[i].S, Kind: types.Kind(args[i+1].I)})
	}
	return NewTable(args[0].S, cols)
}
