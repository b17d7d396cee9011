// Package types defines the fundamental on-chain data types of SEBDB:
// attribute values, transactions (tuples with system-level attributes),
// and blocks, together with their deterministic binary encoding and the
// cryptographic material (hashes, ed25519 signatures) that makes blocks
// tamper-evident.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the attribute types supported by SEBDB schemas.
type Kind uint8

const (
	// KindNull is the zero Value; it compares less than every other value.
	KindNull Kind = iota
	// KindString is a UTF-8 string attribute.
	KindString
	// KindInt is a signed 64-bit integer attribute.
	KindInt
	// KindDecimal is a fixed-point decimal attribute, stored as a float64.
	KindDecimal
	// KindBool is a boolean attribute.
	KindBool
	// KindTimestamp is a point in time, stored as Unix microseconds.
	KindTimestamp
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindDecimal:
		return "decimal"
	case KindBool:
		return "bool"
	case KindTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to its Kind. It accepts the aliases
// commonly used in the paper's examples (e.g. "varchar", "integer").
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "string", "varchar", "text", "char":
		return KindString, nil
	case "int", "integer", "bigint", "long":
		return KindInt, nil
	case "decimal", "float", "double", "numeric":
		return KindDecimal, nil
	case "bool", "boolean":
		return KindBool, nil
	case "timestamp", "time", "datetime":
		return KindTimestamp, nil
	default:
		return KindNull, fmt.Errorf("types: unknown attribute type %q", name)
	}
}

// Value is a single attribute value. It is a compact tagged union rather
// than an interface so tuples can be compared and hashed without
// allocation in the hot paths of index maintenance and query execution.
type Value struct {
	Kind Kind
	S    string
	I    int64 // also carries Bool (0/1) and Timestamp (unix micros)
	F    float64
}

// Null is the null value.
var Null = Value{Kind: KindNull}

// Str returns a string Value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Int returns an int Value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Dec returns a decimal Value.
func Dec(f float64) Value { return Value{Kind: KindDecimal, F: f} }

// Bool returns a bool Value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// Time returns a timestamp Value from Unix microseconds.
func Time(unixMicro int64) Value { return Value{Kind: KindTimestamp, I: unixMicro} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool reports the boolean interpretation of a KindBool value.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// Float returns the numeric interpretation of v (int, decimal or
// timestamp) as a float64; it is used by histogram bucketing.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindInt, KindTimestamp, KindBool:
		return float64(v.I)
	case KindDecimal:
		return v.F
	default:
		return math.NaN()
	}
}

// Numeric reports whether v belongs to a numerically ordered kind.
func (v Value) Numeric() bool {
	switch v.Kind {
	case KindInt, KindDecimal, KindTimestamp:
		return true
	}
	return false
}

// String renders the value for display and for SQL result rows.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.S
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindDecimal:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindTimestamp:
		return strconv.FormatInt(v.I, 10)
	default:
		return "?"
	}
}

// Compare orders two values. Null sorts lowest; across numeric kinds the
// comparison is by numeric value so int 3 == decimal 3.0; otherwise the
// kinds must match.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.Numeric() && b.Numeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		// Different, non-comparable kinds: order by kind tag so sorting is
		// still total (needed by sort-merge join on mixed data).
		return int(a.orderTag()) - int(b.orderTag())
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBool:
		return int(a.I - b.I)
	default:
		return 0
	}
}

// orderTag is the kind tag Compare orders v by against a value of
// another kind. Every numeric kind shares KindInt's, so the numbers —
// which order among themselves by value — sit together between strings
// and Bools.
func (v Value) orderTag() Kind {
	if v.Numeric() {
		return KindInt
	}
	return v.Kind
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce converts v to kind k when a lossless or conventional conversion
// exists (e.g. int literal into a decimal column). It returns an error
// when the conversion would change meaning, and for a decimal NaN: a NaN
// has no place in the order Compare gives numbers, so it is refused at
// the door rather than stored. ±Inf order correctly and are kept.
func Coerce(v Value, k Kind) (Value, error) {
	if v.Kind == KindDecimal && math.IsNaN(v.F) {
		return Null, fmt.Errorf("types: a decimal cannot be NaN")
	}
	if v.Kind == k || v.Kind == KindNull {
		return v, nil
	}
	switch {
	case v.Kind == KindInt && k == KindDecimal:
		return Dec(float64(v.I)), nil
	case v.Kind == KindDecimal && k == KindInt && v.F == math.Trunc(v.F):
		return Int(int64(v.F)), nil
	case v.Kind == KindInt && k == KindTimestamp:
		return Time(v.I), nil
	case v.Kind == KindString && k == KindInt:
		i, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("types: cannot coerce %q to int", v.S)
		}
		return Int(i), nil
	case v.Kind == KindString && k == KindDecimal:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil || math.IsNaN(f) {
			return Null, fmt.Errorf("types: cannot coerce %q to decimal", v.S)
		}
		return Dec(f), nil
	default:
		return Null, fmt.Errorf("types: cannot coerce %s to %s", v.Kind, k)
	}
}
