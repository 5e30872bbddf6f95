package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// CompileRanges binds p to a reusable zone evaluator: three-valued over a
// region (a zone map or a qd-tree node's) of a table of schema s. Each
// leaf's column is resolved to its ordinal here, once — one s lacks reads
// as unbounded — as is literal work (NULL and NaN screening, LIKE prefix
// intervals), so batch zone pruning sweeps every candidate block through
// the returned closure without re-walking p or looking a name up.
//
// The result is sound under the filter rule (see normalize): TriFalse
// means no row of the region matches p, TriTrue that every row whose
// columns are neither NULL nor NaN does. A zone map's bounds leave both
// out, which is why a region can be decided at all.
func CompileRanges(p Predicate, s *relation.Schema) ZoneEval {
	switch q := p.(type) {
	case *Comparison:
		ord, op, v := s.Ordinal(q.Column), q.Op, q.Value
		if v.IsNull() || v.IsNaN() {
			return constTri(TriFalse)
		}
		return func(r Ranges) Tri { return compareIntervalToValue(r.At(ord), op, v) }
	case *ColumnComparison:
		left, op, right := s.Ordinal(q.Left), q.Op, s.Ordinal(q.Right)
		return func(r Ranges) Tri { return compareIntervals(r.At(left), op, r.At(right)) }
	case *InList:
		return compileInList(q, s)
	case *Like:
		ord := s.Ordinal(q.Column)
		pi := Unbounded()
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" && !q.Negate_ {
			pi = prefixInterval(prefix) // matches lie in [prefix, successor)
		}
		return func(r Ranges) Tri {
			iv := r.At(ord)
			if iv.Empty || orders(iv, value.String("")) && iv.Intersect(pi).Empty {
				return TriFalse
			}
			return TriMaybe
		}
	case *And:
		kids := compileAll(q.Children, s)
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
		kids := compileAll(q.Children, s)
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

func compileAll(ps []Predicate, s *relation.Schema) []ZoneEval {
	out := make([]ZoneEval, len(ps))
	for i, c := range ps {
		out[i] = CompileRanges(c, s)
	}
	return out
}

func constTri(t Tri) ZoneEval { return func(Ranges) Tri { return t } }

// compileInList decides x IN (...) as an OR of "=" over its literals and
// NOT IN as an AND of "<>": a literal may lie in the interval (maybe), be
// its only point (decides), or lie outside it. A NULL or NaN literal
// equals nothing and differs from nothing, so it drops out of an IN and
// empties a NOT IN.
func compileInList(q *InList, s *relation.Schema) ZoneEval {
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
	ord, neg := s.Ordinal(q.Column), q.Negate_
	return func(r Ranges) Tri {
		iv := r.At(ord)
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
func orders(iv *Interval, v value.Value) bool {
	return iv.Min.Comparable(v) && iv.Max.Comparable(v) // a NULL bound is comparable
}

// compareIntervalToValue decides (x op v) for the x in iv; v is neither
// NULL nor NaN.
func compareIntervalToValue(iv *Interval, op Op, v value.Value) Tri {
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
	return decide(op, allLt, allLe, allGt, allGe, allLe && allGe && iv.IsPoint())
}

// compareIntervals decides (x op y) for x in l and y in r.
func compareIntervals(l *Interval, op Op, r *Interval) Tri {
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

// Zone is a filter prepared once for region tests over tables of one
// schema: Eval is its zone evaluator (CompileRanges), and Ranges its range
// extraction (RangesOf), derived on first use. A query binds one Zone per
// alias, and qd-tree routing, an induced cut's source test and zone-map
// pruning all read it. Until Ranges has been called once, a Zone belongs
// to one goroutine.
type Zone struct {
	Eval      ZoneEval
	p         Predicate
	s         *relation.Schema
	ranges    Ranges
	extracted bool
}

// NewZone compiles p's zone evaluator over schema s.
func NewZone(p Predicate, s *relation.Schema) *Zone {
	return &Zone{Eval: CompileRanges(p, s), p: p, s: s}
}

// Ranges returns the filter's range extraction, deriving it on the first
// call.
func (z *Zone) Ranges() Ranges {
	if !z.extracted {
		z.ranges, z.extracted = RangesOf(z.p, z.s), true
	}
	return z.ranges
}
