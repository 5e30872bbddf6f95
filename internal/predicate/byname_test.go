package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

// The by-name zone evaluator the ordinal one replaced, kept as the oracle
// the bound form is checked against: a region maps column names to
// intervals, a FALSE region carries a sentinel column, and every leaf
// looks its column up by name on every evaluation. None of it runs in
// production.

// byName is a region keyed by column name; a missing column is unbounded.
type byName map[string]Interval

// falseCol is the sentinel column that marks a by-name FALSE region.
const falseCol = "\x00false"

func (r byName) get(col string) Interval {
	if iv, ok := r[col]; ok {
		return iv
	}
	return Unbounded()
}

func (r byName) refine(o byName) byName {
	out := make(byName, len(r)+len(o))
	for col, iv := range r {
		out[col] = iv
	}
	for col, iv := range o {
		out[col] = out.get(col).Intersect(iv)
	}
	return out
}

func (r byName) hasEmpty() bool {
	for _, iv := range r {
		if iv.Empty {
			return true
		}
	}
	return false
}

// rangesOfByName is RangesOf keyed by name.
func rangesOfByName(p Predicate) byName {
	out := byName{}
	extractByName(p, out)
	return out
}

func extractByName(p Predicate, out byName) {
	switch q := p.(type) {
	case *Comparison:
		if q.Value.IsNull() || q.Value.IsNaN() {
			return
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
		default:
			return
		}
		out[q.Column] = out.get(q.Column).Intersect(iv)
	case *InList:
		if q.Negate_ || len(q.Values) == 0 {
			return
		}
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
		out[q.Column] = out.get(q.Column).Intersect(NewInterval(lo, hi, true, true))
	case *Like:
		if q.Negate_ {
			return
		}
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" {
			out[q.Column] = out.get(q.Column).Intersect(prefixInterval(prefix))
		}
	case *And:
		for _, c := range q.Children {
			extractByName(c, out)
		}
	case *Or:
		if len(q.Children) == 0 {
			return
		}
		branches := make([]byName, len(q.Children))
		for i, c := range q.Children {
			branches[i] = rangesOfByName(c)
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
				out[col] = out.get(col).Intersect(hull)
			}
		}
	case Const:
		if !bool(q) {
			out[falseCol] = Interval{Empty: true}
		}
	}
}

// compileByName is CompileRanges looking each column up by name.
func compileByName(p Predicate) func(byName) Tri {
	switch q := p.(type) {
	case *Comparison:
		col, op, v := q.Column, q.Op, q.Value
		if v.IsNull() || v.IsNaN() {
			return func(byName) Tri { return TriFalse }
		}
		return func(r byName) Tri { iv := r.get(col); return compareIntervalToValue(&iv, op, v) }
	case *ColumnComparison:
		left, op, right := q.Left, q.Op, q.Right
		return func(r byName) Tri { l, rr := r.get(left), r.get(right); return compareIntervals(&l, op, &rr) }
	case *InList:
		lits := make([]value.Value, 0, len(q.Values))
		for _, v := range q.Values {
			if v.IsNull() || v.IsNaN() {
				if q.Negate_ {
					return func(byName) Tri { return TriFalse }
				}
				continue
			}
			lits = append(lits, v)
		}
		col, neg := q.Column, q.Negate_
		return func(r byName) Tri {
			iv := r.get(col)
			if iv.Empty {
				return TriFalse
			}
			in := TriFalse
			for _, v := range lits {
				switch {
				case !orders(&iv, v):
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
	case *Like:
		col := q.Column
		pi := Unbounded()
		if prefix, ok := likePrefix(q.Pattern); ok && prefix != "" && !q.Negate_ {
			pi = prefixInterval(prefix)
		}
		return func(r byName) Tri {
			iv := r.get(col)
			if iv.Empty || orders(&iv, value.String("")) && iv.Intersect(pi).Empty {
				return TriFalse
			}
			return TriMaybe
		}
	case *And, *Or:
		var kids []Predicate
		and := false
		if a, ok := q.(*And); ok {
			kids, and = a.Children, true
		} else {
			kids = q.(*Or).Children
		}
		fns := make([]func(byName) Tri, len(kids))
		for i, c := range kids {
			fns[i] = compileByName(c)
		}
		return func(r byName) Tri {
			res := TriFalse
			if and {
				res = TriTrue
			}
			for _, f := range fns {
				if and {
					res = min(res, f(r))
				} else {
					res = max(res, f(r))
				}
			}
			return res
		}
	case Const:
		return func(byName) Tri { return triFromBool(bool(q)) }
	}
	panic("oracle: unknown predicate type")
}

// nameSchema is a table of the named columns, all int: CompileRanges and
// RangesOf read no column kinds.
func nameSchema(cols ...string) *relation.Schema {
	defs := make([]relation.Column, len(cols))
	for i, c := range cols {
		defs[i] = relation.Column{Name: c, Type: value.KindInt}
	}
	return relation.MustSchema("t", defs...)
}

// bind translates r to the ordinal form over s, interval for interval:
// the sentinel becomes the FALSE flag, and a column s lacks is dropped.
func bind(r byName, s *relation.Schema) Ranges {
	out := Ranges{cols: make([]Interval, s.NumColumns())}
	for i := range out.cols {
		out.cols[i] = r.get(s.Column(i).Name)
	}
	_, out.False = r[falseCol]
	return out
}

// unbind is bind's inverse: the constrained columns of r by name.
func unbind(r Ranges, s *relation.Schema) byName {
	out := byName{}
	for i := range s.NumColumns() {
		if iv := *r.At(i); iv != Unbounded() {
			out[s.Column(i).Name] = iv
		}
	}
	if r.False {
		out[falseCol] = Interval{Empty: true}
	}
	return out
}

// zoneTri decides p over r bound to a schema of r's columns.
func zoneTri(p Predicate, r byName) Tri {
	var cols []string
	for col := range r {
		if col != falseCol {
			cols = append(cols, col)
		}
	}
	slices.Sort(cols)
	s := nameSchema(cols...)
	return CompileRanges(p, s)(bind(r, s))
}

// outcome runs f, reporting a panic as its message, so two evaluators that
// must agree are also held to panicking alike (Intersect panics on bounds
// of kinds that never order).
func outcome[T any](f func() T) (res T, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return f(), ""
}

// TestBoundRangesMatchByName holds the ordinal form to the by-name oracle
// on random regions and predicates: CompileRanges returns the same Tri,
// RangesOf the same intervals, and Refine, HasEmpty and Disjoint the same
// regions and answers. The predicates take NULL and NaN literals, ints
// and floats mixed, LIKE prefixes, column pairs, IN and NOT IN, FALSE, and
// a column ("m") the schema lacks; regions constrain only schema columns,
// as every zone map and qd-tree region over the table does. The bound form
// never intersects m's intervals, so m takes numeric literals and no LIKE,
// which never make the by-name form panic either.
func TestBoundRangesMatchByName(t *testing.T) {
	s := nameSchema("a", "b", "c", "s")
	cols := []string{"a", "b", "c", "s", "m"}
	rng := rand.New(rand.NewSource(46))
	lits := []value.Value{
		value.Null, value.Int(-3), value.Int(0), value.Int(4), value.Int(7), value.Int(math.MaxInt64),
		value.Float(math.NaN()), value.Float(2.5), value.Float(4), value.Float(math.Inf(-1)),
		value.String(""), value.String("ab"), value.String("abz"), value.String("b"),
	}
	lit := func(col string) value.Value {
		if col == "m" {
			return lits[rng.Intn(10)]
		}
		return lits[rng.Intn(len(lits))]
	}
	// A region's bounds on one column order against each other, and an
	// interval they leave no value in is Empty, as in a zone map and in
	// every range extraction (Intersect normalizes both ways).
	numeric := []value.Value{value.Null, value.Int(-3), value.Int(0), value.Int(4), value.Int(7), value.Float(2.5), value.Float(4)}
	strs := []value.Value{value.Null, value.String("ab"), value.String("abz"), value.String("b")}
	interval := func() Interval {
		bounds := numeric
		if rng.Intn(3) == 0 {
			bounds = strs
		}
		switch rng.Intn(8) {
		case 0:
			return Unbounded()
		case 1:
			return Interval{Empty: true}
		case 2:
			return Point(bounds[1+rng.Intn(len(bounds)-1)])
		}
		return Unbounded().Intersect(NewInterval(bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))],
			rng.Intn(2) == 0, rng.Intn(2) == 0))
	}
	region := func() byName {
		r := byName{}
		for _, c := range cols[:4] {
			if rng.Intn(3) > 0 {
				r[c] = interval()
			}
		}
		if rng.Intn(12) == 0 {
			r[falseCol] = Interval{Empty: true}
		}
		return r
	}
	patterns := []string{"ab%", "a%", "%b", "a_z", "", "b%", "\xff%", "ab"}
	var pred func(depth int) Predicate
	pred = func(depth int) Predicate {
		col := func() string { return cols[rng.Intn(len(cols))] }
		k := rng.Intn(9)
		if depth == 0 {
			k = rng.Intn(6)
		}
		switch k {
		case 0, 1:
			c := col()
			return NewComparison(c, Op(rng.Intn(int(Ge)+1)), lit(c))
		case 2:
			return &ColumnComparison{Left: col(), Op: Op(rng.Intn(int(Ge) + 1)), Right: col()}
		case 3:
			c := col()
			vals := make([]value.Value, rng.Intn(4))
			for i := range vals {
				vals[i] = lit(c)
			}
			if rng.Intn(2) == 0 {
				return NewNotIn(c, vals...)
			}
			return NewIn(c, vals...)
		case 4: // a LIKE prefix is a string interval: never on m, which is numeric
			c := cols[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				return NewNotLike(c, patterns[rng.Intn(len(patterns))])
			}
			return NewLike(c, patterns[rng.Intn(len(patterns))])
		case 5:
			return Const(rng.Intn(2) == 0)
		}
		kids := make([]Predicate, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = pred(depth - 1)
		}
		if k%2 == 0 {
			return &And{Children: kids}
		}
		return &Or{Children: kids}
	}

	for i := 0; i < 20000; i++ {
		p := pred(2)
		ra, rb := region(), region()
		ba, bb := bind(ra, s), bind(rb, s)

		want, wantPanic := outcome(func() Tri { return compileByName(p)(ra) })
		got, gotPanic := outcome(func() Tri { return CompileRanges(p, s)(ba) })
		if got != want || (gotPanic == "") != (wantPanic == "") {
			t.Fatalf("%s over %v: bound %v (%s), by name %v (%s)", p, ra, got, gotPanic, want, wantPanic)
		}

		wantR, wantPanic := outcome(func() byName { return rangesOfByName(p) })
		gotR, gotPanic := outcome(func() Ranges { return RangesOf(p, s) })
		if (gotPanic == "") != (wantPanic == "") {
			t.Fatalf("RangesOf(%s): bound panic %q, by name %q", p, gotPanic, wantPanic)
		}
		if wantPanic == "" {
			if u, w := unbind(gotR, s), unbind(bind(wantR, s), s); fmt.Sprint(u) != fmt.Sprint(w) {
				t.Fatalf("RangesOf(%s): bound %v, by name %v", p, u, w)
			}
			if gotR.HasEmpty() != bind(wantR, s).HasEmpty() {
				t.Fatalf("RangesOf(%s).HasEmpty: bound %v", p, gotR.HasEmpty())
			}
		}

		wantRef, wantPanic := outcome(func() byName { return ra.refine(rb) })
		gotRef, gotPanic := outcome(func() Ranges { return ba.Refine(bb) })
		if (gotPanic == "") != (wantPanic == "") {
			t.Fatalf("%v refined by %v: bound panic %q, by name %q", ra, rb, gotPanic, wantPanic)
		}
		if wantPanic == "" {
			if u, w := unbind(gotRef, s), unbind(bind(wantRef, s), s); fmt.Sprint(u) != fmt.Sprint(w) {
				t.Fatalf("%v refined by %v: bound %v, by name %v", ra, rb, u, w)
			}
			if gotRef.HasEmpty() != wantRef.hasEmpty() || ba.Disjoint(bb) != wantRef.hasEmpty() {
				t.Fatalf("%v refined by %v: bound empty %v, disjoint %v; by name %v",
					ra, rb, gotRef.HasEmpty(), ba.Disjoint(bb), wantRef.hasEmpty())
			}
		}
	}
}
