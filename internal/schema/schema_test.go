package schema

import (
	"math"
	"strings"
	"testing"

	"sebdb/internal/types"
)

func donate(t testing.TB) *Table {
	t.Helper()
	tbl, err := NewTable("Donate", []Column{
		{Name: "donor", Kind: types.KindString},
		{Name: "project", Kind: types.KindString},
		{Name: "amount", Kind: types.KindDecimal},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableNormalises(t *testing.T) {
	tbl := donate(t)
	if tbl.Name != "donate" {
		t.Errorf("name = %q", tbl.Name)
	}
	if tbl.Columns[0].Name != "donor" {
		t.Errorf("col0 = %q", tbl.Columns[0].Name)
	}
}

func TestNewTableRejections(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
	}{
		{"", []Column{{"a", types.KindInt}}},
		{"_schema", []Column{{"a", types.KindInt}}},
		{"t", nil},
		{"t", []Column{{"", types.KindInt}}},
		{"t", []Column{{"a", types.KindInt}, {"A", types.KindString}}}, // dup, case-insensitive
		{"t", []Column{{"tid", types.KindInt}}},                        // shadows system column
		{"t", []Column{{"a", types.KindNull}}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.name, c.cols); err == nil {
			t.Errorf("NewTable(%q, %v) should fail", c.name, c.cols)
		}
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := donate(t)
	if i := tbl.ColumnIndex("AMOUNT"); i != 2 {
		t.Errorf("ColumnIndex = %d", i)
	}
	if i := tbl.ColumnIndex("nope"); i != -1 {
		t.Errorf("missing column index = %d", i)
	}
	k, sys, err := tbl.ColumnKind("senid")
	if err != nil || !sys || k != types.KindString {
		t.Errorf("senid kind = %v sys=%v err=%v", k, sys, err)
	}
	k, sys, err = tbl.ColumnKind("amount")
	if err != nil || sys || k != types.KindDecimal {
		t.Errorf("amount kind = %v sys=%v err=%v", k, sys, err)
	}
	if _, _, err = tbl.ColumnKind("ghost"); err == nil {
		t.Error("unknown column should error")
	}
	all := tbl.AllColumnNames()
	want := "tid ts senid tname donor project amount"
	if strings.Join(all, " ") != want {
		t.Errorf("AllColumnNames = %v", all)
	}
}

func TestValidateArgs(t *testing.T) {
	tbl := donate(t)
	out, err := tbl.ValidateArgs([]types.Value{types.Str("Jack"), types.Str("Edu"), types.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	if out[2].Kind != types.KindDecimal || out[2].F != 100 {
		t.Errorf("int not coerced to decimal: %v", out[2])
	}
	if _, err = tbl.ValidateArgs([]types.Value{types.Str("Jack")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err = tbl.ValidateArgs([]types.Value{types.Bool(true), types.Str("x"), types.Dec(1)}); err == nil {
		t.Error("uncoercible value should fail")
	}
}

func TestTableValue(t *testing.T) {
	tbl := donate(t)
	tx := &types.Transaction{Tid: 7, Ts: 11, SenID: "org1", Tname: "donate",
		Args: []types.Value{types.Str("Jack"), types.Str("Edu"), types.Dec(100)}}
	if v, _ := tbl.Value(tx, "donor"); v != types.Str("Jack") {
		t.Errorf("donor = %v", v)
	}
	if v, _ := tbl.Value(tx, "TID"); v != types.Int(7) {
		t.Errorf("tid = %v", v)
	}
	if _, err := tbl.Value(tx, "ghost"); err == nil {
		t.Error("unknown column should error")
	}
	// Scans evaluate every predicate through Value once per tuple; the
	// application-column path used to build and drop an error each time.
	if n := testing.AllocsPerRun(100, func() {
		if v, err := tbl.Value(tx, "amount"); err != nil || v.F != 100 {
			t.Fatalf("amount = %v, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("application-column lookup allocates %v times, want 0", n)
	}
}

func TestCheckArgs(t *testing.T) {
	tbl := donate(t)
	for name, tc := range map[string]struct {
		args []types.Value
		ok   bool
	}{
		"tuple":         {[]types.Value{types.Str("Jack"), types.Str("Edu"), types.Dec(100)}, true},
		"null column":   {[]types.Value{types.Str("Jack"), types.Null, types.Dec(100)}, true},
		"short":         {[]types.Value{types.Str("Jack")}, false},
		"long":          {[]types.Value{types.Str("a"), types.Str("b"), types.Dec(1), types.Dec(2)}, false},
		"uncoerced int": {[]types.Value{types.Str("Jack"), types.Str("Edu"), types.Int(100)}, false},
		"NaN":           {[]types.Value{types.Str("Jack"), types.Str("Edu"), types.Dec(math.NaN())}, false},
		"+Inf":          {[]types.Value{types.Str("Jack"), types.Str("Edu"), types.Dec(math.Inf(1))}, true},
	} {
		if err := tbl.CheckArgs(tc.args); (err == nil) != tc.ok {
			t.Errorf("%s: CheckArgs = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

func TestDDLRoundTrip(t *testing.T) {
	tbl := donate(t)
	got, err := DecodeDDL(tbl.EncodeDDL())
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(got) {
		t.Errorf("DDL round-trip mismatch: %+v", got)
	}
}

func TestDecodeDDLRejections(t *testing.T) {
	bad := [][]types.Value{
		nil,
		{types.Str("t")},                 // no columns
		{types.Str("t"), types.Str("a")}, // even length
		{types.Int(1), types.Str("a"), types.Int(1)},       // name not string
		{types.Str("t"), types.Int(1), types.Int(1)},       // col name not string
		{types.Str("t"), types.Str("a"), types.Str("int")}, // kind not int
		{types.Str("t"), types.Str("a"), types.Int(0)},     // null kind
	}
	for i, args := range bad {
		if _, err := DecodeDDL(args); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCheckTuples(t *testing.T) {
	tbl := donate(t)
	good := &types.Transaction{Tname: "donate", Args: []types.Value{types.Str("Jack"), types.Str("Edu"), types.Dec(1)}}
	short := &types.Transaction{Tname: "donate", Args: []types.Value{types.Str("Jack")}}
	ddl := &types.Transaction{Tname: MetaTable, Args: tbl.EncodeDDL()}
	// No such table: neither transaction is a tuple of anything.
	if err := CheckTuples(nil, []*types.Transaction{good, short, ddl}); err != nil {
		t.Errorf("transactions of an unknown type refused: %v", err)
	}
	tables := map[string]*Table{"donate": tbl}
	if err := CheckTuples(tables, []*types.Transaction{good, short}); err == nil {
		t.Error("short tuple of a defined table passed")
	}
	txs := []*types.Transaction{good, ddl, good}
	if n := testing.AllocsPerRun(100, func() {
		if err := CheckTuples(tables, txs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checking a good block allocates %v times, want 0", n)
	}
}
