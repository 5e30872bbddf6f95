package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// Compile binds p to a table, returning a fast row evaluator. Column indexes
// are resolved once and the common integer comparison / IN cases avoid Value
// boxing. Record routing through qd-trees — the hottest loop in offline
// optimization — uses compiled predicates.
func Compile(p Predicate, t *relation.Table) func(row int) bool {
	switch q := p.(type) {
	case *Comparison:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return func(int) bool { return false }
		}
		col := t.Schema().Column(ci)
		if col.Type == value.KindInt && q.Value.Kind() == value.KindInt {
			vals, lit, op := t.Ints(ci), q.Value.Int(), q.Op
			return func(row int) bool {
				if t.IsNullAt(row, ci) {
					return false
				}
				v := vals[row]
				switch op {
				case Eq:
					return v == lit
				case Ne:
					return v != lit
				case Lt:
					return v < lit
				case Le:
					return v <= lit
				case Gt:
					return v > lit
				default:
					return v >= lit
				}
			}
		}
		if col.Type == value.KindFloat && !q.Value.IsNull() &&
			(q.Value.Kind() == value.KindFloat || q.Value.Kind() == value.KindInt) {
			vals, lit, op := t.Floats(ci), q.Value.AsFloat(), q.Op
			return func(row int) bool {
				if t.IsNullAt(row, ci) {
					return false
				}
				v := vals[row]
				switch op {
				case Eq:
					return v == lit
				case Ne:
					return v != lit
				case Lt:
					return v < lit
				case Le:
					return v <= lit
				case Gt:
					return v > lit
				default:
					return v >= lit
				}
			}
		}
		if col.Type == value.KindString && q.Value.Kind() == value.KindString {
			vals, lit, op := t.Strings(ci), q.Value.Str(), q.Op
			return func(row int) bool {
				if t.IsNullAt(row, ci) {
					return false
				}
				v := vals[row]
				switch op {
				case Eq:
					return v == lit
				case Ne:
					return v != lit
				case Lt:
					return v < lit
				case Le:
					return v <= lit
				case Gt:
					return v > lit
				default:
					return v >= lit
				}
			}
		}
	case *ColumnComparison:
		li, lok := t.Schema().ColumnIndex(q.Left)
		ri, rok := t.Schema().ColumnIndex(q.Right)
		if !lok || !rok {
			return func(int) bool { return false }
		}
		if kind := t.Schema().Column(li).Type; kind == t.Schema().Column(ri).Type {
			switch kind {
			case value.KindInt:
				return compileColPair(t, li, ri, t.Ints(li), t.Ints(ri), q.Op)
			case value.KindFloat:
				return compileColPair(t, li, ri, t.Floats(li), t.Floats(ri), q.Op)
			case value.KindString:
				return compileColPair(t, li, ri, t.Strings(li), t.Strings(ri), q.Op)
			}
		}
	case *InList:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return func(int) bool { return false }
		}
		if t.Schema().Column(ci).Type == value.KindInt {
			set := make(map[int64]struct{}, len(q.Values))
			hasNullLit := false
			for _, v := range q.Values {
				switch {
				case v.IsNull():
					hasNullLit = true
				case v.Kind() == value.KindInt:
					set[v.Int()] = struct{}{}
				}
			}
			vals, neg := t.Ints(ci), q.Negate_
			return func(row int) bool {
				if t.IsNullAt(row, ci) {
					return false
				}
				_, found := set[vals[row]]
				if neg {
					if hasNullLit {
						return false
					}
					return !found
				}
				return found
			}
		}
		if t.Schema().Column(ci).Type == value.KindString {
			set := make(map[string]struct{}, len(q.Values))
			hasNullLit := false
			for _, v := range q.Values {
				switch {
				case v.IsNull():
					hasNullLit = true
				case v.Kind() == value.KindString:
					set[v.Str()] = struct{}{}
				}
			}
			vals, neg := t.Strings(ci), q.Negate_
			return func(row int) bool {
				if t.IsNullAt(row, ci) {
					return false
				}
				_, found := set[vals[row]]
				if neg {
					if hasNullLit {
						return false
					}
					return !found
				}
				return found
			}
		}
	case *And:
		fns := make([]func(int) bool, len(q.Children))
		for i, c := range q.Children {
			fns[i] = Compile(c, t)
		}
		return func(row int) bool {
			for _, fn := range fns {
				if !fn(row) {
					return false
				}
			}
			return true
		}
	case *Or:
		fns := make([]func(int) bool, len(q.Children))
		for i, c := range q.Children {
			fns[i] = Compile(c, t)
		}
		return func(row int) bool {
			for _, fn := range fns {
				if fn(row) {
					return true
				}
			}
			return false
		}
	case Const:
		b := bool(q)
		return func(int) bool { return b }
	}
	// Fallback: generic evaluation.
	return func(row int) bool { return p.EvalRow(t, row) }
}

// compileColPair is the typed evaluator of a same-kind column pair: no
// name lookup, no boxing. It orders like value.Compare — only < and > are
// consulted — and NULL on either side never matches.
func compileColPair[T int64 | float64 | string](t *relation.Table, li, ri int, l, r []T, op Op) func(int) bool {
	return func(row int) bool {
		if t.IsNullAt(row, li) || t.IsNullAt(row, ri) {
			return false
		}
		cmp := 0
		switch a, b := l[row], r[row]; {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
		return op.apply(cmp)
	}
}
