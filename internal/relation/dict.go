package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"mto/internal/bitmap"
	"mto/internal/value"
)

// ColumnDict is a sorted dictionary encoding of one column: every row maps
// to the rank of its value among the column's distinct values (-1 for null
// rows). It is the engine's one join-key representation: kernels probe
// int32 codes instead of boxed value.Value map keys, and because codes are
// ranks, iterating a code set in ascending order yields the values in
// sorted order — exactly what zone-interval pruning wants.
//
// Int, float and string columns are encoded. A float column follows
// equijoin semantics: NaN rows get code -1 like NULL rows (NaN equals
// nothing), and -0 and +0 share the code of +0 (they compare equal).
//
// An int column whose values fill [base, base+span) without a hole takes
// the interval form: a code is v − base, still the value's rank, and it
// stores neither Ints nor Codes (Code reads the column itself).
type ColumnDict struct {
	Kind  value.Kind
	Codes []int32   // row → code; -1 for null (and NaN) rows (sorted form)
	Ints  []int64   // code → value, ascending (int columns, sorted form)
	Flts  []float64 // code → value, ascending (float columns)
	Strs  []string  // code → value, ascending (string columns)

	base, span int64   // interval form (span > 0): code c holds base + c
	vals       []int64 // interval form: the column's values and null rows
	nulls      []bool
}

// BuildColumnDict dictionary-encodes the named column of t.
func BuildColumnDict(t *Table, col string) (*ColumnDict, error) {
	ci, ok := t.Schema().ColumnIndex(col)
	if !ok {
		return nil, fmt.Errorf("relation: %s: no column %q", t.Schema().Table(), col)
	}
	kind := t.Schema().Column(ci).Type
	d := &ColumnDict{Kind: kind}
	nulls := t.Nulls(ci)
	switch kind {
	case value.KindInt:
		vals := t.Ints(ci)
		if d.base, d.span = interval(vals, nulls); d.span > 0 {
			d.vals, d.nulls = vals, nulls
		} else {
			d.Ints, d.Codes = encode(vals, nulls)
		}
	case value.KindFloat:
		d.Flts, d.Codes = encode(t.Floats(ci), nulls)
		for i, v := range d.Flts {
			if v == 0 {
				d.Flts[i] = 0 // -0 and +0 share a code; +0 labels it
			}
		}
	case value.KindString:
		d.Strs, d.Codes = encode(t.Strings(ci), nulls)
	default:
		return nil, fmt.Errorf("relation: cannot dictionary-encode %s column %q", kind, col)
	}
	return d, nil
}

// interval returns [base, base+span) when the non-null values of vals
// fill it without a hole, span 0 otherwise: one pass finds the bounds, a
// second marks each value in a presence bitset.
func interval(vals []int64, nulls []bool) (base, span int64) {
	lo, hi, n := int64(math.MaxInt64), int64(math.MinInt64), 0
	for r, v := range vals {
		if nulls == nil || !nulls[r] {
			lo, hi, n = min(lo, v), max(hi, v), n+1
		}
	}
	if n == 0 || uint64(hi-lo) >= uint64(n) { // hi − lo + 1 values cannot fit in n rows
		return 0, 0
	}
	seen := bitmap.NewDense(int(hi-lo) + 1)
	for r, v := range vals {
		if nulls == nil || !nulls[r] {
			seen.Set(int(v - lo))
		}
	}
	if seen.Count() != int(hi-lo)+1 {
		return 0, 0
	}
	return lo, hi - lo + 1
}

// encode sorts and ranks vals: distinct holds the values of the rows
// neither null nor NaN (v != v), ascending and deduplicated, and codes maps
// every row to its value's rank in distinct (-1 for the others).
func encode[T cmp.Ordered](vals []T, nulls []bool) (distinct []T, codes []int32) {
	codes = make([]int32, len(vals))
	distinct = make([]T, 0, len(vals))
	for r, v := range vals {
		if nulls != nil && nulls[r] || v != v {
			codes[r] = -1
			continue
		}
		distinct = append(distinct, v)
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	for r, v := range vals {
		if codes[r] == 0 { // a row with a value, still unranked
			i, _ := slices.BinarySearch(distinct, v)
			codes[r] = int32(i)
		}
	}
	return distinct, codes
}

// NumRows returns the number of rows encoded.
func (d *ColumnDict) NumRows() int { return max(len(d.Codes), len(d.vals)) }

// Code returns row r's code, -1 for a null (or NaN) row.
func (d *ColumnDict) Code(r int) int32 {
	switch {
	case d.span == 0:
		return d.Codes[r]
	case d.nulls != nil && d.nulls[r]:
		return -1
	}
	return int32(d.vals[r] - d.base)
}

// HasNulls reports whether some row has no code: a NULL or NaN row.
func (d *ColumnDict) HasNulls() bool {
	if d.span > 0 {
		return slices.Contains(d.nulls, true)
	}
	return slices.Contains(d.Codes, -1)
}

// NumCodes returns the number of distinct values with a code.
func (d *ColumnDict) NumCodes() int {
	switch {
	case d.span > 0:
		return int(d.span)
	case d.Kind == value.KindInt:
		return len(d.Ints)
	case d.Kind == value.KindFloat:
		return len(d.Flts)
	}
	return len(d.Strs)
}

// Value boxes the value behind a code.
func (d *ColumnDict) Value(code int32) value.Value {
	switch d.Kind {
	case value.KindInt:
		if d.span > 0 {
			return value.Int(d.base + int64(code))
		}
		return value.Int(d.Ints[code])
	case value.KindFloat:
		return value.Float(d.Flts[code])
	}
	return value.String(d.Strs[code])
}

// IntCode returns the code of int value v, -1 when the column never holds
// it: arithmetic in the interval form, a binary search in the sorted one.
func (d *ColumnDict) IntCode(v int64) int32 {
	if lo, _, ok := d.CodeRange(value.Int(v)); ok {
		return lo
	}
	return -1
}

// CodeRange translates one literal into d's code space: lo is the rank of
// the first dictionary value ≥ v, hi is the rank just past the last value
// ≤ v, and exists reports whether v itself is in the dictionary (so
// hi == lo+1 when it is, hi == lo when it is not). Because codes are
// ranks in the sorted value list, every comparison predicate on values
// becomes a code probe: v' < v ⇔ code < lo, v' ≤ v ⇔ code < hi,
// v' = v ⇔ exists ∧ code == lo, v' ≥ v ⇔ code ≥ lo, v' > v ⇔ code ≥ hi.
// A literal of a different kind, or a NaN literal, is below every value
// (lo = hi = 0).
//
// This is the same sorted-dict contract colstore's compressed scan applies
// to segment dictionary pages — one representation shared by the engine's
// join-key caches and the storage encoding — so a query translates each
// literal once per dictionary, and codes translate order-preservingly
// between the two worlds via TranslateCodes (see DESIGN.md).
func (d *ColumnDict) CodeRange(v value.Value) (lo, hi int32, exists bool) {
	var l int
	switch {
	case d.Kind != v.Kind():
	case d.Kind == value.KindInt && d.span > 0:
		switch x := v.Int(); {
		case x > d.base+d.span-1:
			l = int(d.span)
		case x >= d.base:
			l, exists = int(x-d.base), true
		}
	case d.Kind == value.KindInt:
		l, exists = slices.BinarySearch(d.Ints, v.Int())
	case d.Kind == value.KindFloat:
		if x := v.Float(); x == x {
			l, exists = slices.BinarySearch(d.Flts, x)
		}
	case d.Kind == value.KindString:
		l, exists = slices.BinarySearch(d.Strs, v.Str())
	}
	lo = int32(l)
	hi = lo
	if exists {
		hi++
	}
	return lo, hi, exists
}

// Rank returns the first code whose value is above b — or at it, when
// orEqual — comparing as value.Compare does: ints against floats exactly,
// a NaN bound equal to every value. ok is false when b's kind cannot be
// compared with d's.
func (d *ColumnDict) Rank(b value.Value, orEqual bool) (code int32, ok bool) {
	var compare func(c int) int // code c's value against b, across kinds
	switch {
	case d.Kind == value.KindFloat && b.IsNaN():
		compare = func(int) int { return 0 }
	case d.Kind == b.Kind():
		lo, hi, _ := d.CodeRange(b)
		if orEqual {
			return lo, true
		}
		return hi, true
	case d.Kind == value.KindInt && b.Kind() == value.KindFloat:
		compare = func(c int) int { return value.CompareIntFloat(d.Value(int32(c)).Int(), b.Float()) }
	case d.Kind == value.KindFloat && b.Kind() == value.KindInt:
		compare = func(c int) int { return -value.CompareIntFloat(b.Int(), d.Flts[c]) }
	default:
		return 0, false
	}
	return int32(sort.Search(d.NumCodes(), func(c int) bool { x := compare(c); return x > 0 || x == 0 && orEqual })), true
}

// TranslateCodes returns, for every code of from, the code of the equal
// value in to, or -1 when to's column never holds it. Dictionaries of
// different kinds translate to all -1: join-key membership uses exact
// value identity (the scalar path's boxed map keys compare by kind and
// payload), so an int key never matches a string or float column. Two
// sorted value lists translate by a single merge; an int pair with an
// interval side looks each code up.
func TranslateCodes(from, to *ColumnDict) []int32 {
	out := make([]int32, from.NumCodes())
	for i := range out {
		out[i] = -1
	}
	switch {
	case from.Kind != to.Kind:
	case from.Kind == value.KindInt && (from.span > 0 || to.span > 0):
		for c := range out {
			out[c] = to.IntCode(from.Value(int32(c)).Int())
		}
	case from.Kind == value.KindInt:
		mergeCodes(from.Ints, to.Ints, out)
	case from.Kind == value.KindFloat:
		mergeCodes(from.Flts, to.Flts, out)
	default:
		mergeCodes(from.Strs, to.Strs, out)
	}
	return out
}

func mergeCodes[T cmp.Ordered](from, to []T, out []int32) {
	j := 0
	for i, v := range from {
		for j < len(to) && to[j] < v {
			j++
		}
		if j < len(to) && to[j] == v {
			out[i] = int32(j)
		}
	}
}

// IntervalShift returns, when from and to are both interval dictionaries,
// the shift that translates them: code c of from holds the value of code
// c + shift of to, when that lies in [0, to.NumCodes()). Disjoint
// intervals get a shift that sends every code of from out of that range,
// so c + shift never overflows uint32.
func IntervalShift(from, to *ColumnDict) (shift int32, ok bool) {
	switch {
	case from.span == 0 || to.span == 0:
		return 0, false
	case from.base > to.base+to.span-1: // from lies above to
		return int32(to.span), true
	case to.base > from.base+from.span-1: // from lies below to
		return -int32(from.span), true
	}
	return int32(from.base - to.base), true
}
