package predicate

import "mto/internal/value"

// CompileRanges binds p to a reusable zone evaluator: three-valued over a
// region of per-column intervals, a zone map or a qd-tree node's region.
// Literal work — NULL and NaN screening, LIKE prefix intervals — happens
// here once, so batch zone pruning sweeps every candidate block through
// the returned closure without re-walking p.
//
// The result is sound under the filter rule (see normalize), with no
// schema needed: TriFalse means no row of the region matches p, TriTrue
// that every row whose columns are neither NULL nor NaN does. A zone
// map's bounds leave both out, which is why a region can be decided at
// all.
func CompileRanges(p Predicate) func(Ranges) Tri {
	switch q := p.(type) {
	case *Comparison:
		col, op, v := q.Column, q.Op, q.Value
		if v.IsNull() || v.IsNaN() {
			return constTri(TriFalse)
		}
		return func(r Ranges) Tri { return compareIntervalToValue(r.Get(col), op, v) }
	case *ColumnComparison:
		left, op, right := q.Left, q.Op, q.Right
		return func(r Ranges) Tri { return compareIntervals(r.Get(left), op, r.Get(right)) }
	case *InList:
		return compileInList(q)
	case *Like:
		col := q.Column
		pi := Unbounded()
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" && !q.Negate_ {
			pi = prefixInterval(prefix) // matches lie in [prefix, successor)
		}
		return func(r Ranges) Tri {
			iv := r.Get(col)
			if iv.Empty || orders(iv, value.String("")) && iv.Intersect(pi).Empty {
				return TriFalse
			}
			return TriMaybe
		}
	case *And:
		kids := compileAll(q.Children)
		return func(r Ranges) Tri {
			res := TriTrue
			for _, k := range kids {
				switch k(r) {
				case TriFalse:
					return TriFalse
				case TriMaybe:
					res = TriMaybe
				}
			}
			return res
		}
	case *Or:
		kids := compileAll(q.Children)
		return func(r Ranges) Tri {
			res := TriFalse
			for _, k := range kids {
				switch k(r) {
				case TriTrue:
					return TriTrue
				case TriMaybe:
					res = TriMaybe
				}
			}
			return res
		}
	case Const:
		return constTri(triFromBool(bool(q)))
	}
	panic("predicate: CompileRanges on an unknown predicate type")
}

func compileAll(ps []Predicate) []func(Ranges) Tri {
	out := make([]func(Ranges) Tri, len(ps))
	for i, c := range ps {
		out[i] = CompileRanges(c)
	}
	return out
}

func constTri(t Tri) func(Ranges) Tri { return func(Ranges) Tri { return t } }

// compileInList decides x IN (...) as an OR of "=" over its literals and
// NOT IN as an AND of "<>": a literal may lie in the interval (maybe), be
// its only point (decides), or lie outside it. A NULL or NaN literal
// equals nothing and differs from nothing, so it drops out of an IN and
// empties a NOT IN.
func compileInList(q *InList) func(Ranges) Tri {
	lits := make([]value.Value, 0, len(q.Values))
	for _, v := range q.Values {
		if v.IsNull() || v.IsNaN() {
			if q.Negate_ {
				return constTri(TriFalse)
			}
			continue
		}
		lits = append(lits, v)
	}
	col, neg := q.Column, q.Negate_
	return func(r Ranges) Tri {
		iv := r.Get(col)
		if iv.Empty {
			return TriFalse
		}
		in := TriFalse
		for _, v := range lits {
			switch {
			case !orders(iv, v):
				in = max(in, TriMaybe)
			case iv.Contains(v):
				in = TriMaybe
				if iv.IsPoint() {
					in = TriTrue
				}
			}
		}
		if neg {
			return TriTrue - in
		}
		return in
	}
}

// orders reports whether v orders against iv's bounds (an unbounded side
// orders against anything). Where it does not, the region's bounds come
// from literals of another kind than v — a zone map of another kind of
// column, or a qd-tree cut ill-typed for its column — and decide nothing.
func orders(iv Interval, v value.Value) bool {
	return (iv.Min.IsNull() || iv.Min.Comparable(v)) && (iv.Max.IsNull() || iv.Max.Comparable(v))
}

// compareIntervalToValue decides (x op v) for the x in iv; v is neither
// NULL nor NaN.
func compareIntervalToValue(iv Interval, op Op, v value.Value) Tri {
	switch {
	case iv.Empty:
		return TriFalse
	case !orders(iv, v):
		return TriMaybe
	}
	// allLt: every x < v; allGe: every x >= v; and so on.
	var allLt, allLe, allGt, allGe bool
	if !iv.Max.IsNull() {
		cmp := iv.Max.Compare(v)
		allLt = cmp < 0 || (cmp == 0 && !iv.MaxInc)
		allLe = cmp <= 0
	}
	if !iv.Min.IsNull() {
		cmp := iv.Min.Compare(v)
		allGt = cmp > 0 || (cmp == 0 && !iv.MinInc)
		allGe = cmp >= 0
	}
	point := iv.IsPoint()
	return decide(op, allLt, allLe, allGt, allGe, point && allLe && allGe)
}

// compareIntervals decides (x op y) for x in l and y in r.
func compareIntervals(l Interval, op Op, r Interval) Tri {
	switch {
	case l.Empty || r.Empty:
		return TriFalse
	case !orders(l, r.Min) || !orders(l, r.Max):
		return TriMaybe
	}
	var allLt, allLe, allGt, allGe bool
	if !l.Max.IsNull() && !r.Min.IsNull() {
		cmp := l.Max.Compare(r.Min)
		allLt = cmp < 0 || (cmp == 0 && !(l.MaxInc && r.MinInc))
		allLe = cmp <= 0
	}
	if !l.Min.IsNull() && !r.Max.IsNull() {
		cmp := l.Min.Compare(r.Max)
		allGt = cmp > 0 || (cmp == 0 && !(l.MinInc && r.MaxInc))
		allGe = cmp >= 0
	}
	same := l.IsPoint() && r.IsPoint() && l.Min.Compare(r.Min) == 0
	return decide(op, allLt, allLe, allGt, allGe, same)
}

// decide turns the orderings every pair (x, y) of two regions shares into
// op's decision; same means both regions are one and the same point.
func decide(op Op, allLt, allLe, allGt, allGe, same bool) Tri {
	var yes, no bool
	switch op {
	case Eq:
		yes, no = same, allLt || allGt
	case Ne:
		yes, no = allLt || allGt, same
	case Lt:
		yes, no = allLt, allGe
	case Le:
		yes, no = allLe, allGt
	case Gt:
		yes, no = allGt, allLe
	default: // Ge
		yes, no = allGe, allLt
	}
	switch {
	case yes:
		return TriTrue
	case no:
		return TriFalse
	}
	return TriMaybe
}
