package relation

import (
	"cmp"
	"fmt"
	"slices"

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
type ColumnDict struct {
	Kind  value.Kind
	Codes []int32   // row → code; -1 for null (and NaN) rows
	Ints  []int64   // code → value, ascending (int columns)
	Flts  []float64 // code → value, ascending (float columns)
	Strs  []string  // code → value, ascending (string columns)
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
		d.Ints, d.Codes = encode(t.Ints(ci), nulls)
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

// NumCodes returns the number of distinct values with a code.
func (d *ColumnDict) NumCodes() int {
	switch d.Kind {
	case value.KindInt:
		return len(d.Ints)
	case value.KindFloat:
		return len(d.Flts)
	}
	return len(d.Strs)
}

// Value boxes the value behind a code.
func (d *ColumnDict) Value(code int32) value.Value {
	switch d.Kind {
	case value.KindInt:
		return value.Int(d.Ints[code])
	case value.KindFloat:
		return value.Float(d.Flts[code])
	}
	return value.String(d.Strs[code])
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
	switch {
	case d.Kind == value.KindInt && b.Kind() == value.KindInt:
		return rankOrdered(d.Ints, b.Int(), orEqual), true
	case d.Kind == value.KindFloat && b.Kind() == value.KindFloat && b.Float() == b.Float():
		return rankOrdered(d.Flts, b.Float(), orEqual), true
	case d.Kind == value.KindFloat && b.Kind() == value.KindFloat: // NaN
		return rankBy(d.Flts, func(float64) int { return 0 }, orEqual), true
	case d.Kind == value.KindString && b.Kind() == value.KindString:
		return rankOrdered(d.Strs, b.Str(), orEqual), true
	case d.Kind == value.KindInt && b.Kind() == value.KindFloat:
		return rankBy(d.Ints, func(v int64) int { return value.CompareIntFloat(v, b.Float()) }, orEqual), true
	case d.Kind == value.KindFloat && b.Kind() == value.KindInt:
		return rankBy(d.Flts, func(v float64) int { return -value.CompareIntFloat(b.Int(), v) }, orEqual), true
	}
	return 0, false
}

// rankOrdered is Rank within one kind over distinct ascending values.
func rankOrdered[T cmp.Ordered](vals []T, b T, orEqual bool) int32 {
	i, found := slices.BinarySearch(vals, b)
	if found && !orEqual {
		i++
	}
	return int32(i)
}

// rankBy is Rank through compare, each value's order against the bound.
func rankBy[T any](vals []T, compare func(T) int, orEqual bool) int32 {
	i, _ := slices.BinarySearchFunc(vals, 0, func(v T, _ int) int {
		if c := compare(v); c > 0 || c == 0 && orEqual {
			return 1
		}
		return -1
	})
	return int32(i)
}

// TranslateCodes returns, for every code of from, the code of the equal
// value in to, or -1 when to's column never holds it. Dictionaries of
// different kinds translate to all -1: join-key membership uses exact
// value identity (the scalar path's boxed map keys compare by kind and
// payload), so an int key never matches a string or float column. Both
// value lists are sorted, so the translation is a single merge.
func TranslateCodes(from, to *ColumnDict) []int32 {
	out := make([]int32, from.NumCodes())
	for i := range out {
		out[i] = -1
	}
	if from.Kind != to.Kind {
		return out
	}
	switch from.Kind {
	case value.KindInt:
		mergeCodes(from.Ints, to.Ints, out)
	case value.KindFloat:
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
