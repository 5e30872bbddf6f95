package predicate

import (
	"fmt"
	"strings"

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

// IsPoint reports whether the interval contains exactly one value.
func (iv Interval) IsPoint() bool {
	return !iv.Empty && !iv.Min.IsNull() && !iv.Max.IsNull() &&
		iv.MinInc && iv.MaxInc && iv.Min.Compare(iv.Max) == 0
}

// Contains reports whether v lies within the interval.
func (iv Interval) Contains(v value.Value) bool {
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

// Ranges maps column names to interval constraints. Columns not present are
// unconstrained. The nil map is valid and fully unconstrained.
type Ranges map[string]Interval

// Get returns the column's interval, defaulting to unbounded.
func (r Ranges) Get(col string) Interval {
	if iv, ok := r[col]; ok {
		return iv
	}
	return Unbounded()
}

// Clone returns a copy of r.
func (r Ranges) Clone() Ranges {
	out := make(Ranges, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Refine returns r intersected with o (column-wise).
func (r Ranges) Refine(o Ranges) Ranges {
	out := r.Clone()
	for col, iv := range o {
		out[col] = out.Get(col).Intersect(iv)
	}
	return out
}

// HasEmpty reports whether any column's interval is provably empty, which
// means the whole region holds no rows satisfying its constraints.
func (r Ranges) HasEmpty() bool {
	for _, iv := range r {
		if iv.Empty {
			return true
		}
	}
	return false
}

// String renders the ranges sorted by column for deterministic output.
func (r Ranges) String() string {
	cols := make([]string, 0, len(r))
	for c := range r {
		cols = append(cols, c)
	}
	// insertion-sort — Ranges are tiny
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s∈%s", c, r[c])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// --- range extraction ---

// RangesOf derives the per-column interval constraints implied by p. It is
// conservative: the returned region is a superset of the rows satisfying p.
// Qd-tree construction uses it to maintain each node's region: the "yes"
// child refines the parent region with RangesOf(cut), the "no" child with
// RangesOf(cut.Negate()).
func RangesOf(p Predicate) Ranges {
	out := Ranges{}
	extractRanges(p, out)
	return out
}

func extractRanges(p Predicate, out Ranges) {
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
		out[q.Column] = out.Get(q.Column).Intersect(iv)
	case *InList:
		if q.Negate_ || len(q.Values) == 0 {
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
		out[q.Column] = out.Get(q.Column).Intersect(NewInterval(lo, hi, true, true))
	case *Like:
		if q.Negate_ {
			return
		}
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" {
			out[q.Column] = out.Get(q.Column).Intersect(prefixInterval(prefix))
		}
	case *And:
		for _, c := range q.Children {
			extractRanges(c, out)
		}
	case *Or:
		// A column is constrained only if every branch constrains it;
		// take the per-column hull.
		if len(q.Children) == 0 {
			return
		}
		branches := make([]Ranges, len(q.Children))
		for i, c := range q.Children {
			branches[i] = RangesOf(c)
		}
		for col := range branches[0] {
			hull, ok := branches[0][col], true
			for _, br := range branches[1:] {
				iv, present := br[col]
				if !present {
					ok = false
					break
				}
				hull = Hull(hull, iv)
			}
			if ok {
				out[col] = out.Get(col).Intersect(hull)
			}
		}
	case Const:
		if !bool(q) {
			// FALSE constrains everything to empty; mark via sentinel column.
			out["\x00false"] = Interval{Empty: true}
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
