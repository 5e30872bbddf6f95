package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// The scalar oracle: one row or one region at a time, straight from the
// filter rule — ints and floats compare numerically and exactly, and a
// NULL or a NaN matches no comparison, "<>" included, nor IN, NOT IN,
// LIKE or NOT LIKE. FillMask, FillRows, CompileScan and CompileRanges are
// each checked against it; none of it runs in production.

// evalRow evaluates p against one row of t. A missing column reads as
// NULL.
func evalRow(p Predicate, t *relation.Table, row int) bool {
	switch q := p.(type) {
	case *Comparison:
		return compareValues(cell(t, row, q.Column), q.Op, q.Value)
	case *ColumnComparison:
		return compareValues(cell(t, row, q.Left), q.Op, cell(t, row, q.Right))
	case *InList:
		v := cell(t, row, q.Column)
		if !q.Negate_ {
			for _, l := range q.Values {
				if compareValues(v, Eq, l) {
					return true
				}
			}
			return false
		}
		// x NOT IN (...) is x <> every literal, and x itself ordered.
		if v.IsNull() || v.IsNaN() {
			return false
		}
		for _, l := range q.Values {
			if !compareValues(v, Ne, l) {
				return false
			}
		}
		return true
	case *Like:
		v := cell(t, row, q.Column)
		return v.Kind() == value.KindString && likeMatch(q.Pattern, v.Str()) != q.Negate_
	case *And:
		for _, c := range q.Children {
			if !evalRow(c, t, row) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range q.Children {
			if evalRow(c, t, row) {
				return true
			}
		}
		return false
	case Const:
		return bool(q)
	}
	panic("oracle: unknown predicate type")
}

// cell is row's value in col, NULL when t has no such column.
func cell(t *relation.Table, row int, col string) value.Value {
	ci, ok := t.Schema().ColumnIndex(col)
	if !ok {
		return value.Null
	}
	return t.Value(row, ci)
}

// compareValues is the filter rule for one comparison.
func compareValues(a value.Value, op Op, b value.Value) bool {
	if a.IsNull() || b.IsNull() || a.IsNaN() || b.IsNaN() || !a.Comparable(b) {
		return false
	}
	return op.Apply(a.Compare(b))
}

// evalRanges walks p over a by-name region node by node: the decisions
// CompileRanges must reproduce. An IN list is the OR of its "="
// comparisons, a NOT IN the AND of its "<>" ones.
func evalRanges(p Predicate, r byName) Tri {
	switch q := p.(type) {
	case *Comparison:
		if q.Value.IsNull() || q.Value.IsNaN() {
			return TriFalse
		}
		iv := r.get(q.Column)
		return compareIntervalToValue(&iv, q.Op, q.Value)
	case *ColumnComparison:
		l, rr := r.get(q.Left), r.get(q.Right)
		return compareIntervals(&l, q.Op, &rr)
	case *InList:
		kids := make([]Predicate, len(q.Values))
		for i, v := range q.Values {
			if q.Negate_ {
				kids[i] = &Comparison{Column: q.Column, Op: Ne, Value: v}
			} else {
				kids[i] = &Comparison{Column: q.Column, Op: Eq, Value: v}
			}
		}
		if r.get(q.Column).Empty {
			return TriFalse
		}
		if q.Negate_ {
			return evalRanges(&And{Children: kids}, r)
		}
		return evalRanges(&Or{Children: kids}, r)
	case *Like:
		iv := r.get(q.Column)
		if iv.Empty {
			return TriFalse
		}
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" && !q.Negate_ &&
			orders(&iv, value.String("")) && iv.Intersect(prefixInterval(prefix)).Empty {
			return TriFalse
		}
		return TriMaybe
	case *And:
		res := TriTrue
		for _, c := range q.Children {
			res = min(res, evalRanges(c, r))
		}
		return res
	case *Or:
		res := TriFalse
		for _, c := range q.Children {
			res = max(res, evalRanges(c, r))
		}
		return res
	case Const:
		return triFromBool(bool(q))
	}
	panic("oracle: unknown predicate type")
}

// OracleRow exports evalRow to the external tests that run it against
// encoded pages.
var OracleRow = evalRow
