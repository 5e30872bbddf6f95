// Package value defines the scalar value model shared by the relation,
// predicate, zone-map, and qd-tree packages. A Value is a small immutable
// tagged union over the column types the layout optimizer understands:
// 64-bit integers (which also carry dates as days since the Unix epoch),
// 64-bit floats, and strings. A distinguished Null value sorts before
// everything else, matching the ordering most columnar warehouses use for
// zone-map bounds.
package value

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar. The zero Value is Null.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the null scalar; it equals the zero Value.
var Null = Value{}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string Value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Date returns an integer Value encoding t's UTC date as days since the Unix
// epoch. Dates compare correctly against other Date / Int values.
func Date(t time.Time) Value {
	return Int(t.UTC().Truncate(24*time.Hour).Unix() / 86400)
}

// DateFromString parses an ISO "2006-01-02" date into a Date value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("value: parse date %q: %w", s, err)
	}
	return Date(t), nil
}

// MustDate is DateFromString that panics on malformed input. It is intended
// for compile-time-constant dates in tests and workload templates.
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null scalar.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNaN reports whether v is a float NaN.
func (v Value) IsNaN() bool { return v.kind == KindFloat && v.f != v.f }

// Int returns the integer payload; it panics if v is not an int.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the float payload; it panics if v is not a float.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
	return v.f
}

// Str returns the string payload; it panics if v is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// AsFloat converts numeric values to float64 for mixed int/float comparison.
// It panics on non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("value: AsFloat() on %s", v.kind))
	}
}

// Comparable reports whether two values can be ordered against each other:
// same kind, or both numeric. Null is comparable to everything.
func (v Value) Comparable(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull || v.kind == o.kind {
		return true
	}
	return v.numeric() && o.numeric()
}

func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare returns -1, 0, or +1 ordering v against o. Null sorts first.
// Mixed int/float compares numerically and exactly (CompareIntFloat). It panics on incomparable kinds
// (e.g. string vs int), which indicates a schema error upstream.
func (v Value) Compare(o Value) int {
	switch {
	case v.kind == KindNull && o.kind == KindNull:
		return 0
	case v.kind == KindNull:
		return -1
	case o.kind == KindNull:
		return 1
	}
	if v.kind == o.kind {
		switch v.kind {
		case KindInt:
			return cmpOrdered(v.i, o.i)
		case KindFloat:
			return cmpOrdered(v.f, o.f)
		case KindString:
			return cmpOrdered(v.s, o.s)
		}
	}
	switch {
	case v.kind == KindInt && o.kind == KindFloat:
		return CompareIntFloat(v.i, o.f)
	case v.kind == KindFloat && o.kind == KindInt:
		return -CompareIntFloat(o.i, v.f)
	}
	panic(fmt.Sprintf("value: compare %s vs %s", v.kind, o.kind))
}

// CompareIntFloat orders i against f exactly: converting i to float64
// would round it above 2^53. A NaN f compares as 0, as cmpOrdered has it.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): converts exactly
	if c := cmpOrdered(i, int64(t)); c != 0 {
		return c
	}
	return cmpOrdered(t, f) // i is t: f's fraction decides
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether v and o are the same value. Unlike SQL, Null equals
// Null here; predicate evaluation handles SQL null semantics separately.
func (v Value) Equal(o Value) bool {
	if !v.Comparable(o) {
		return false
	}
	return v.Compare(o) == 0
}

// Less reports v < o under Compare's total order.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Hash returns a 64-bit hash of v, suitable for hash-join build tables.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h ^= uint64(b); h *= prime64 }
	mix(byte(v.kind))
	switch v.kind {
	case KindInt:
		u := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			mix(byte(u >> s))
		}
	case KindFloat:
		// Hash floats via their numeric value when integral so that
		// Int(3) and Float(3) hash identically (they compare equal).
		if v.f == float64(int64(v.f)) {
			return Int(int64(v.f)).Hash()
		}
		u := uint64(int64(v.f * 1e6))
		for s := 0; s < 64; s += 8 {
			mix(byte(u >> s))
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	}
	return h
}

// String renders v for debugging and plan text.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	default:
		return "?"
	}
}

// FormatDate renders an integer value as the ISO date it encodes.
func (v Value) FormatDate() string {
	if v.kind != KindInt {
		return v.String()
	}
	return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
}

// Min returns the smaller of a and b under Compare.
func Min(a, b Value) Value {
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b under Compare.
func Max(a, b Value) Value {
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}
