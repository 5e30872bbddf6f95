package predicate

import (
	"fmt"
	"strings"

	"mto/internal/relation"
	"mto/internal/value"
)

// Interval describes what is known about one column's values within a
// region (a zone map, or a qd-tree node's path constraints). Min/Max equal
// to value.Null mean unbounded on that side. Empty means the region provably
// contains no non-null values for the column, so every SQL comparison over
// it is false.
type Interval struct {
	Min, Max       value.Value
	MinInc, MaxInc bool
	Empty          bool
}

// Unbounded is the interval with no constraints.
func Unbounded() Interval { return Interval{MinInc: true, MaxInc: true} }

// Point returns the single-value interval [v, v].
func Point(v value.Value) Interval {
	return Interval{Min: v, Max: v, MinInc: true, MaxInc: true}
}

// NewInterval builds an interval with the given bounds.
func NewInterval(min, max value.Value, minInc, maxInc bool) Interval {
	return Interval{Min: min, Max: max, MinInc: minInc, MaxInc: maxInc}
}

// unbounded reports whether iv constrains nothing.
func (iv *Interval) unbounded() bool { return !iv.Empty && iv.Min.IsNull() && iv.Max.IsNull() }

// IsPoint reports whether the interval contains exactly one value.
func (iv *Interval) IsPoint() bool {
	return !iv.Empty && !iv.Min.IsNull() && !iv.Max.IsNull() &&
		iv.MinInc && iv.MaxInc && iv.Min.Compare(iv.Max) == 0
}

// Contains reports whether v lies within the interval.
func (iv *Interval) Contains(v value.Value) bool {
	if iv.Empty || v.IsNull() {
		return false
	}
	if !iv.Min.IsNull() {
		if !v.Comparable(iv.Min) {
			return false
		}
		cmp := v.Compare(iv.Min)
		if cmp < 0 || (cmp == 0 && !iv.MinInc) {
			return false
		}
	}
	if !iv.Max.IsNull() {
		if !v.Comparable(iv.Max) {
			return false
		}
		cmp := v.Compare(iv.Max)
		if cmp > 0 || (cmp == 0 && !iv.MaxInc) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two intervals and whether it is
// provably empty.
func (iv Interval) Intersect(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Interval{Empty: true}
	}
	out := iv
	if !o.Min.IsNull() {
		switch {
		case out.Min.IsNull():
			out.Min, out.MinInc = o.Min, o.MinInc
		case o.Min.Compare(out.Min) > 0:
			out.Min, out.MinInc = o.Min, o.MinInc
		case o.Min.Compare(out.Min) == 0:
			out.MinInc = out.MinInc && o.MinInc
		}
	}
	if !o.Max.IsNull() {
		switch {
		case out.Max.IsNull():
			out.Max, out.MaxInc = o.Max, o.MaxInc
		case o.Max.Compare(out.Max) < 0:
			out.Max, out.MaxInc = o.Max, o.MaxInc
		case o.Max.Compare(out.Max) == 0:
			out.MaxInc = out.MaxInc && o.MaxInc
		}
	}
	if !out.Min.IsNull() && !out.Max.IsNull() {
		cmp := out.Min.Compare(out.Max)
		if cmp > 0 || (cmp == 0 && !(out.MinInc && out.MaxInc)) {
			return Interval{Empty: true}
		}
	}
	return out
}

// String renders the interval for debugging.
func (iv Interval) String() string {
	if iv.Empty {
		return "∅"
	}
	lo, hi := "(-inf", "+inf)"
	if !iv.Min.IsNull() {
		b := "("
		if iv.MinInc {
			b = "["
		}
		lo = b + iv.Min.String()
	}
	if !iv.Max.IsNull() {
		b := ")"
		if iv.MaxInc {
			b = "]"
		}
		hi = iv.Max.String() + b
	}
	return lo + ", " + hi
}

// Ranges is a region of one table: what is known about each column's
// values, one interval per column ordinal of the table's schema. Each name
// is resolved once, where the region is built (RangesOf, a zone map), so a
// zone evaluator reads a column's interval by index. A column past the end
// of the slice, or one the schema lacks, is unbounded; the zero Ranges is
// the whole table. False marks a region no row lies in: a FALSE cut's side.
type Ranges struct {
	cols  []Interval
	False bool
}

// NewRanges returns the region with cols[i] on the column of ordinal i;
// cols is adopted, not copied.
func NewRanges(cols []Interval) Ranges { return Ranges{cols: cols} }

// unconstrained is what At reads for a column the region does not constrain.
var unconstrained = Unbounded()

// At returns the interval of the column of ordinal ord, unbounded when ord
// is negative or past the region's columns. It is shared: do not mutate.
func (r Ranges) At(ord int) *Interval {
	if uint(ord) < uint(len(r.cols)) {
		return &r.cols[ord]
	}
	return &unconstrained
}

// narrow intersects the interval of the column of ordinal ord with iv.
func (r *Ranges) narrow(ord int, iv Interval) {
	for len(r.cols) <= ord {
		r.cols = append(r.cols, unconstrained)
	}
	r.cols[ord] = r.cols[ord].Intersect(iv)
}

// Refine returns r intersected with o (column-wise).
func (r Ranges) Refine(o Ranges) Ranges {
	out := Ranges{cols: make([]Interval, max(len(r.cols), len(o.cols))), False: r.False || o.False}
	for i := range out.cols {
		out.cols[i] = r.At(i).Intersect(*o.At(i))
	}
	return out
}

// HasEmpty reports whether the region is FALSE or any column's interval
// is provably empty: no row satisfying its constraints lies in it.
func (r Ranges) HasEmpty() bool {
	for i := range r.cols {
		if r.cols[i].Empty {
			return true
		}
	}
	return r.False
}

// Disjoint reports whether no row can lie in both r and o: either is
// FALSE, or some column's intervals do not intersect.
func (r Ranges) Disjoint(o Ranges) bool {
	for i := range max(len(r.cols), len(o.cols)) {
		if a, b := r.At(i), o.At(i); a.Empty || b.Empty || !a.unbounded() && !b.unbounded() && a.Intersect(*b).Empty {
			return true
		}
	}
	return r.False || o.False
}

// String renders the constrained columns by ordinal, for debugging.
func (r Ranges) String() string {
	var parts []string
	for i, iv := range r.cols {
		if !iv.unbounded() {
			parts = append(parts, fmt.Sprintf("#%d∈%s", i, iv))
		}
	}
	if r.False {
		parts = append(parts, "FALSE")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// --- range extraction ---

// RangesOf derives the per-column interval constraints implied by p over a
// table of schema s; a column s lacks stays unbounded. It is conservative:
// the returned region is a superset of the rows satisfying p. Qd-tree
// construction uses it to maintain each node's region: the "yes" child
// refines the parent region with RangesOf(cut), the "no" child with
// RangesOf(cut.Negate()).
func RangesOf(p Predicate, s *relation.Schema) Ranges {
	var out Ranges
	extractRanges(p, s, &out)
	return out
}

func extractRanges(p Predicate, s *relation.Schema, out *Ranges) {
	switch q := p.(type) {
	case *Comparison:
		if q.Value.IsNull() || q.Value.IsNaN() {
			return // matches nothing: the unconstrained region is a superset
		}
		var iv Interval
		switch q.Op {
		case Eq:
			iv = Point(q.Value)
		case Lt:
			iv = NewInterval(value.Null, q.Value, true, false)
		case Le:
			iv = NewInterval(value.Null, q.Value, true, true)
		case Gt:
			iv = NewInterval(q.Value, value.Null, false, true)
		case Ge:
			iv = NewInterval(q.Value, value.Null, true, true)
		default: // Ne gives no interval constraint
			return
		}
		if ord := s.Ordinal(q.Column); ord >= 0 {
			out.narrow(ord, iv)
		}
	case *InList:
		ord := s.Ordinal(q.Column)
		if q.Negate_ || len(q.Values) == 0 || ord < 0 {
			return
		}
		// Convex hull of the listed values.
		lo, hi := q.Values[0], q.Values[0]
		for _, v := range q.Values[1:] {
			if v.IsNull() || v.IsNaN() || !v.Comparable(lo) {
				return
			}
			lo, hi = value.Min(lo, v), value.Max(hi, v)
		}
		if lo.IsNull() || lo.IsNaN() {
			return
		}
		out.narrow(ord, NewInterval(lo, hi, true, true))
	case *Like:
		ord := s.Ordinal(q.Column)
		if q.Negate_ || ord < 0 {
			return
		}
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" {
			out.narrow(ord, prefixInterval(prefix))
		}
	case *And:
		for _, c := range q.Children {
			extractRanges(c, s, out)
		}
	case *Or:
		// A column is constrained only if every branch constrains it;
		// take the per-column hull (a branch that leaves it unbounded
		// makes the hull unbounded). The OR is FALSE when every branch is.
		if len(q.Children) == 0 {
			return
		}
		hull := RangesOf(q.Children[0], s)
		for _, c := range q.Children[1:] {
			br := RangesOf(c, s)
			hull.False = hull.False && br.False
			for i := range hull.cols {
				hull.cols[i] = Hull(hull.cols[i], *br.At(i))
			}
		}
		for i := range hull.cols {
			out.narrow(i, hull.cols[i])
		}
		out.False = out.False || hull.False
	case Const:
		if !bool(q) {
			out.False = true
		}
	}
	// ColumnComparison contributes no single-column interval.
}

// Hull returns the smallest interval covering both a and b. A side whose
// bounds cannot be ordered against each other (NULL, or mixed value kinds)
// is unbounded: keeping either bound could exclude values the other
// interval covers.
func Hull(a, b Interval) Interval {
	if a.Empty {
		return b
	}
	if b.Empty {
		return a
	}
	out := Unbounded()
	if !a.Min.IsNull() && !b.Min.IsNull() && a.Min.Comparable(b.Min) {
		if a.Min.Compare(b.Min) <= 0 {
			out.Min, out.MinInc = a.Min, a.MinInc || (a.Min.Compare(b.Min) == 0 && b.MinInc)
		} else {
			out.Min, out.MinInc = b.Min, b.MinInc
		}
	}
	if !a.Max.IsNull() && !b.Max.IsNull() && a.Max.Comparable(b.Max) {
		if a.Max.Compare(b.Max) >= 0 {
			out.Max, out.MaxInc = a.Max, a.MaxInc || (a.Max.Compare(b.Max) == 0 && b.MaxInc)
		} else {
			out.Max, out.MaxInc = b.Max, b.MaxInc
		}
	}
	return out
}

// prefixInterval returns the lexicographic interval covering all strings
// with the given prefix: [prefix, successor(prefix)).
func prefixInterval(prefix string) Interval {
	succ := []byte(prefix)
	for i := len(succ) - 1; i >= 0; i-- {
		if succ[i] < 0xff {
			succ[i]++
			succ = succ[:i+1]
			return NewInterval(value.String(prefix), value.String(string(succ)), true, false)
		}
	}
	// Prefix is all 0xff bytes: unbounded above.
	return NewInterval(value.String(prefix), value.Null, true, true)
}
