package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindDecimal: "decimal", KindBool: "bool", KindTimestamp: "timestamp",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"string": KindString, "VARCHAR": KindString, "text": KindString,
		"int": KindInt, "Integer": KindInt, "bigint": KindInt,
		"decimal": KindDecimal, "FLOAT": KindDecimal, "double": KindDecimal,
		"bool": KindBool, "timestamp": KindTimestamp, "datetime": KindTimestamp,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if s := Str("abc").String(); s != "abc" {
		t.Errorf("Str = %q", s)
	}
	if s := Int(-42).String(); s != "-42" {
		t.Errorf("Int = %q", s)
	}
	if s := Dec(3.5).String(); s != "3.5" {
		t.Errorf("Dec = %q", s)
	}
	if s := Bool(true).String(); s != "true" {
		t.Errorf("Bool(true) = %q", s)
	}
	if s := Bool(false).String(); s != "false" {
		t.Errorf("Bool(false) = %q", s)
	}
	if s := Null.String(); s != "NULL" {
		t.Errorf("Null = %q", s)
	}
	if s := Time(123).String(); s != "123" {
		t.Errorf("Time = %q", s)
	}
	if !Null.IsNull() || Str("x").IsNull() {
		t.Error("IsNull misbehaves")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() || Int(1).AsBool() {
		t.Error("AsBool misbehaves")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(7), Int(7), 0},
		{Int(3), Dec(3.0), 0},  // cross-kind numeric equality
		{Dec(2.5), Int(3), -1}, // cross-kind numeric order
		{Time(5), Int(5), 0},   // timestamps are numeric
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Bool(false), Bool(true), -1},
		// Against another kind every number carries one tag: numbers sit
		// between strings and Bools, whatever their numeric kind, so
		// Int(9) > Time(5) > Bool and Bool > Int(9) cannot all hold.
		{Str("z"), Time(0), -1},
		{Time(5), Bool(false), -1},
		{Dec(9), Bool(false), -1},
		{Int(9), Bool(false), -1},
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
	if !Equal(Int(3), Dec(3)) || Equal(Int(3), Int(4)) {
		t.Error("Equal misbehaves")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareIsTotalOrder(t *testing.T) {
	// Antisymmetry property over random value pairs.
	f := func(ai, bi int64, as, bs string, pick uint8) bool {
		mk := func(which uint8, i int64, s string) Value {
			switch which % 5 {
			case 0:
				return Int(i)
			case 1:
				return Dec(float64(i) / 3)
			case 2:
				return Str(s)
			case 3:
				return Bool(i%2 == 0)
			default:
				return Time(i)
			}
		}
		a := mk(pick, ai, as)
		b := mk(pick>>4, bi, bs)
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatAndNumeric(t *testing.T) {
	if Int(4).Float() != 4 || Dec(2.5).Float() != 2.5 || Time(9).Float() != 9 {
		t.Error("Float conversions wrong")
	}
	if !math.IsNaN(Str("x").Float()) || !math.IsNaN(Null.Float()) {
		t.Error("non-numeric Float should be NaN")
	}
	if !Int(1).Numeric() || !Dec(1).Numeric() || !Time(1).Numeric() {
		t.Error("numeric kinds misreported")
	}
	if Str("x").Numeric() || Bool(true).Numeric() || Null.Numeric() {
		t.Error("non-numeric kinds misreported")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(Int(5), KindDecimal)
	if err != nil || v.Kind != KindDecimal || v.F != 5 {
		t.Errorf("int→decimal: %v, %v", v, err)
	}
	v, err = Coerce(Dec(7), KindInt)
	if err != nil || v.I != 7 {
		t.Errorf("whole decimal→int: %v, %v", v, err)
	}
	if _, err = Coerce(Dec(7.5), KindInt); err == nil {
		t.Error("fractional decimal→int should fail")
	}
	v, err = Coerce(Str("12"), KindInt)
	if err != nil || v.I != 12 {
		t.Errorf("string→int: %v, %v", v, err)
	}
	v, err = Coerce(Str("1.5"), KindDecimal)
	if err != nil || v.F != 1.5 {
		t.Errorf("string→decimal: %v, %v", v, err)
	}
	if _, err = Coerce(Str("xyz"), KindInt); err == nil {
		t.Error("garbage string→int should fail")
	}
	if _, err = Coerce(Bool(true), KindString); err == nil {
		t.Error("bool→string should fail")
	}
	v, err = Coerce(Null, KindInt)
	if err != nil || !v.IsNull() {
		t.Error("null coerces to anything, stays null")
	}
	v, err = Coerce(Int(99), KindTimestamp)
	if err != nil || v.Kind != KindTimestamp || v.I != 99 {
		t.Errorf("int→timestamp: %v, %v", v, err)
	}
	// A NaN is refused however it arrives; ±Inf are kept.
	for _, in := range []Value{Dec(math.NaN()), Str("NaN"), Str("-nan")} {
		if v, err := Coerce(in, KindDecimal); err == nil {
			t.Errorf("%v→decimal = %v, want refused", in, v)
		}
	}
	for _, in := range []Value{Dec(math.Inf(1)), Str("-Inf")} {
		if v, err := Coerce(in, KindDecimal); err != nil || !math.IsInf(v.F, 0) {
			t.Errorf("%v→decimal = %v, %v", in, v, err)
		}
	}
}
