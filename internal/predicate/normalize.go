package predicate

import (
	"math"

	"mto/internal/value"
)

// normalize rewrites p, against the column kinds kindOf reports, into the
// shapes the row and page kernels run, so neither ever refuses a filter.
// Filters obey one rule: ints and floats compare numerically and exactly,
// and NULL and NaN match no comparison — "<>" included — nor IN, NOT IN,
// LIKE or NOT LIKE. A leaf comes out as one of:
//
//   - a Comparison whose literal has its column's kind (a float one not NaN);
//   - a ColumnComparison of two int, float or string columns, or of an
//     int and a float one;
//   - an InList over an int or string column, every literal of that kind;
//   - a Like over a string column;
//   - a Const.
//
// Rewrites: a leaf over a missing column, against a NULL, NaN or
// other-kind literal, LIKE over a non-string column, and a string/number
// pair become Const(false); an int column against a float literal (and a
// float column against an int literal beyond 2^53) becomes the exact
// comparison of its kind; a float IN list becomes an OR of "=" (NOT IN an
// AND of "<>"); an int IN list keeps its integral float literals as ints.
// A NOT IN some literal of which no value can differ from (NULL, NaN, or
// another kind) matches nothing. Subtrees already in shape are returned
// as they are.
func normalize(p Predicate, kindOf func(col string) (value.Kind, bool)) Predicate {
	switch q := p.(type) {
	case *Comparison:
		kind, ok := kindOf(q.Column)
		if !ok {
			return False()
		}
		return normalizeComparison(q, kind)
	case *ColumnComparison:
		lk, lok := kindOf(q.Left)
		rk, rok := kindOf(q.Right)
		if !lok || !rok || !comparableKinds(lk, rk) {
			return False()
		}
		return q
	case *InList:
		kind, ok := kindOf(q.Column)
		if !ok {
			return False()
		}
		return normalizeInList(q, kind)
	case *Like:
		if kind, ok := kindOf(q.Column); !ok || kind != value.KindString {
			return False()
		}
		return q
	case *And:
		if len(q.Children) == 0 {
			return True()
		}
		if kids, changed := normalizeAll(q.Children, kindOf); changed {
			return &And{Children: kids}
		}
		return q
	case *Or:
		if len(q.Children) == 0 {
			return False()
		}
		if kids, changed := normalizeAll(q.Children, kindOf); changed {
			return &Or{Children: kids}
		}
		return q
	}
	return p // Const
}

func normalizeAll(ps []Predicate, kindOf func(col string) (value.Kind, bool)) ([]Predicate, bool) {
	out := make([]Predicate, len(ps))
	changed := false
	for i, c := range ps {
		out[i] = normalize(c, kindOf)
		changed = changed || out[i] != c
	}
	return out, changed
}

// comparableKinds reports whether two column kinds order against each
// other: the same kind, or int and float.
func comparableKinds(a, b value.Kind) bool {
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return a == b && (num(a) || a == value.KindString) || num(a) && num(b)
}

// normalizeComparison rewrites col op lit for a column of kind.
func normalizeComparison(q *Comparison, kind value.Kind) Predicate {
	lit := q.Value
	switch {
	case lit.Kind() == kind && kind != value.KindNull && !lit.IsNaN():
		return q
	case kind == value.KindInt && lit.Kind() == value.KindFloat && !lit.IsNaN():
		return intVsFloat(q.Column, q.Op, lit.Float())
	case kind == value.KindFloat && lit.Kind() == value.KindInt:
		return floatVsInt(q.Column, q.Op, lit.Int())
	}
	return False() // NULL, NaN, or a kind that never orders against the column
}

// notNull matches every non-null (and, over a float column, non-NaN) row.
func notNull(col string, kind value.Kind) Predicate {
	if kind == value.KindInt {
		return &Comparison{Column: col, Op: Ge, Value: value.Int(math.MinInt64)}
	}
	return &Comparison{Column: col, Op: Ge, Value: value.Float(math.Inf(-1))}
}

// intVsFloat is the exact int comparison equivalent to col op x over an
// int column: an integral x in range becomes an int literal; otherwise "="
// never holds, "<>" always does, and a bound rounds to floor(x) or clamps.
func intVsFloat(col string, op Op, x float64) Predicate {
	if i, ok := exactInt(x); ok {
		return &Comparison{Column: col, Op: op, Value: value.Int(i)}
	}
	all := func(holds bool) Predicate {
		if holds {
			return notNull(col, value.KindInt)
		}
		return False()
	}
	switch {
	case op == Eq || op == Ne:
		return all(op == Ne)
	case x >= 1<<63: // +Inf too: every int lies below
		return all(op == Lt || op == Le)
	case x < -(1 << 63):
		return all(op == Gt || op == Ge)
	}
	f := value.Int(int64(math.Floor(x))) // x has a fraction: i < x ⇔ i ≤ ⌊x⌋
	if op == Lt || op == Le {
		return &Comparison{Column: col, Op: Le, Value: f}
	}
	return &Comparison{Column: col, Op: Gt, Value: f}
}

// exactInt returns x as an int64 when it is one exactly.
func exactInt(x float64) (int64, bool) {
	if x >= -(1<<63) && x < 1<<63 && x == math.Trunc(x) {
		return int64(x), true
	}
	return 0, false
}

// floatVsInt is the exact float comparison equivalent to col op x over a
// float column. When float64(x) rounds, no float lies strictly between x
// and its rounding xf, so each bound moves onto xf, inclusive or not.
func floatVsInt(col string, op Op, x int64) Predicate {
	xf := float64(x)
	c := value.CompareIntFloat(x, xf)
	if c == 0 {
		return &Comparison{Column: col, Op: op, Value: value.Float(xf)}
	}
	switch op {
	case Eq:
		return False()
	case Ne:
		return notNull(col, value.KindFloat)
	case Lt, Le: // f < x ⇔ f ≤ x: below xf when it rounded up, up to it when down
		if c < 0 {
			return &Comparison{Column: col, Op: Lt, Value: value.Float(xf)}
		}
		return &Comparison{Column: col, Op: Le, Value: value.Float(xf)}
	default: // Gt, Ge
		if c < 0 {
			return &Comparison{Column: col, Op: Ge, Value: value.Float(xf)}
		}
		return &Comparison{Column: col, Op: Gt, Value: value.Float(xf)}
	}
}

// normalizeInList rewrites col [NOT] IN (...) for a column of kind.
func normalizeInList(q *InList, kind value.Kind) Predicate {
	if kind == value.KindFloat {
		kids := make([]Predicate, len(q.Values))
		op := Eq
		if q.Negate_ {
			op = Ne
		}
		for i, v := range q.Values {
			kids[i] = normalizeComparison(&Comparison{Column: q.Column, Op: op, Value: v}, kind)
		}
		if !q.Negate_ {
			return NewOr(kids...)
		}
		if len(kids) == 0 {
			return notNull(q.Column, kind)
		}
		return NewAnd(kids...)
	}
	if kind != value.KindInt && kind != value.KindString {
		return False()
	}
	vals := make([]value.Value, 0, len(q.Values))
	changed := false
	for _, v := range q.Values {
		lit, keep, poison := inLiteral(v, kind)
		if poison && q.Negate_ {
			return False()
		}
		if keep {
			vals = append(vals, lit)
		}
		changed = changed || !keep || lit != v
	}
	if !changed {
		return q
	}
	return &InList{Column: q.Column, Values: vals, Negate_: q.Negate_}
}

// inLiteral classifies one IN-list literal over an int or string column:
// keep (as lit) when a value can equal it; poison when no value can differ
// from it either (NULL, NaN, another kind), which empties a NOT IN. A
// float that no int equals (a fraction, out of range, ±Inf) is neither:
// "=" never holds and "<>" always does.
func inLiteral(v value.Value, kind value.Kind) (lit value.Value, keep, poison bool) {
	switch {
	case v.Kind() == kind:
		return v, true, false
	case kind == value.KindInt && v.Kind() == value.KindFloat && !v.IsNaN():
		i, ok := exactInt(v.Float())
		return value.Int(i), ok, false
	}
	return v, false, true
}
