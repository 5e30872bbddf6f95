package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// CompileMask evaluates p over every row of t at once, setting bit r of
// mask (stored in mask[r>>6]) for each matching row. It covers the same
// fast shapes as Compile — comparisons and IN lists over int, float, and
// string columns, same-kind column pairs, LIKE, plus AND/OR over such
// children — but dispatches the operator once outside the row loop, so bulk
// membership precompute runs a tight per-type loop instead of a closure
// call per row. mask must be zeroed and hold at least (t.NumRows()+63)/64
// words.
//
// It reports false when p needs the generic per-row path (callers then
// fall back to Compile). Support is decided from p's shape and t's schema
// before any row is touched, so a refusal costs nothing and leaves mask
// untouched.
func CompileMask(p Predicate, t *relation.Table, mask []uint64) bool {
	if !supportedShape(p, tableKinds(t)) {
		return false
	}
	fillSupported(p, t, mask)
	return true
}

// tableKinds adapts t's schema to the kindOf lookup supportedShape and
// CompileScan take.
func tableKinds(t *relation.Table) func(col string) (value.Kind, bool) {
	return func(col string) (value.Kind, bool) {
		ci, ok := t.Schema().ColumnIndex(col)
		if !ok {
			return value.KindNull, false
		}
		return t.Schema().Column(ci).Type, true
	}
}

// supportedShape is the one support matrix CompileMask and CompileScan
// share: a predicate is pushed down (as a bulk mask, or onto encoded pages)
// exactly when every leaf compares like with like. Leaves over a missing
// column match nothing and are supported. Refused: an int or string column
// against a literal of another kind, any column against NULL, a float IN
// list, and a column pair of two different kinds.
func supportedShape(p Predicate, kindOf func(col string) (value.Kind, bool)) bool {
	switch q := p.(type) {
	case *Comparison:
		kind, ok := kindOf(q.Column)
		if !ok {
			return true
		}
		switch lit := q.Value.Kind(); kind {
		case value.KindInt:
			return lit == value.KindInt
		case value.KindFloat:
			return lit == value.KindFloat || lit == value.KindInt
		case value.KindString:
			return lit == value.KindString
		}
		return false
	case *ColumnComparison:
		lk, lok := kindOf(q.Left)
		rk, rok := kindOf(q.Right)
		if !lok || !rok {
			return true
		}
		return lk == rk && (lk == value.KindInt || lk == value.KindFloat || lk == value.KindString)
	case *InList:
		kind, ok := kindOf(q.Column)
		return !ok || kind == value.KindInt || kind == value.KindString
	case *Like, Const:
		return true
	case *And:
		for _, c := range q.Children {
			if !supportedShape(c, kindOf) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range q.Children {
			if !supportedShape(c, kindOf) {
				return false
			}
		}
		return true
	}
	return false
}

// fillSupported is CompileMask's evaluator; p has passed supportedShape.
func fillSupported(p Predicate, t *relation.Table, mask []uint64) {
	switch q := p.(type) {
	case *Comparison:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return // no such column: matches nothing, mask stays zero
		}
		switch t.Schema().Column(ci).Type {
		case value.KindInt:
			MaskCompare(t.Ints(ci), q.Op, q.Value.Int(), mask)
		case value.KindFloat:
			MaskCompare(t.Floats(ci), q.Op, q.Value.AsFloat(), mask)
		case value.KindString:
			MaskCompare(t.Strings(ci), q.Op, q.Value.Str(), mask)
		}
		clearNulls(t.Nulls(ci), mask)
	case *ColumnComparison:
		li, lok := t.Schema().ColumnIndex(q.Left)
		ri, rok := t.Schema().ColumnIndex(q.Right)
		if !lok || !rok {
			return // a missing side reads as NULL: matches nothing
		}
		switch t.Schema().Column(li).Type {
		case value.KindInt:
			MaskCompareCols(t.Ints(li), t.Ints(ri), q.Op, mask)
		case value.KindFloat:
			MaskCompareCols(t.Floats(li), t.Floats(ri), q.Op, mask)
		case value.KindString:
			MaskCompareCols(t.Strings(li), t.Strings(ri), q.Op, mask)
		}
		// NULL on either side never matches (EvalRow's rule).
		clearNulls(t.Nulls(li), mask)
		clearNulls(t.Nulls(ri), mask)
	case *InList:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok {
			return
		}
		switch t.Schema().Column(ci).Type {
		case value.KindInt:
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
			maskInList(t.Ints(ci), set, q.Negate_, hasNullLit, mask)
		case value.KindString:
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
			maskInList(t.Strings(ci), set, q.Negate_, hasNullLit, mask)
		}
		clearNulls(t.Nulls(ci), mask)
	case *Like:
		ci, ok := t.Schema().ColumnIndex(q.Column)
		if !ok || t.Schema().Column(ci).Type != value.KindString {
			return // missing or non-string column: LIKE matches nothing
		}
		match := likeMatcher(q.Pattern)
		neg := q.Negate_
		for r, s := range t.Strings(ci) {
			if match(s) != neg {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		// Null rows never match, not even NOT LIKE (SQL three-valued logic,
		// mirroring EvalRow).
		clearNulls(t.Nulls(ci), mask)
	case *And:
		fillSupported(q.Children[0], t, mask)
		scratch := make([]uint64, len(mask))
		for _, c := range q.Children[1:] {
			for w := range scratch {
				scratch[w] = 0
			}
			fillSupported(c, t, scratch)
			for w := range mask {
				mask[w] &= scratch[w]
			}
		}
	case *Or:
		// Each child must be evaluated into a clean mask: children AND in
		// conjuncts and clear null-row bits, and either would corrupt bits
		// already accumulated by earlier disjuncts if they shared the mask.
		fillSupported(q.Children[0], t, mask)
		scratch := make([]uint64, len(mask))
		for _, c := range q.Children[1:] {
			for w := range scratch {
				scratch[w] = 0
			}
			fillSupported(c, t, scratch)
			for w := range mask {
				mask[w] |= scratch[w]
			}
		}
	case Const:
		if bool(q) {
			setAll(mask, t.NumRows())
		}
	}
}

// FillMask computes p's full-table match mask: bit r of mask is set iff
// row r of t satisfies p. Fast shapes use CompileMask's branchless loops;
// anything CompileMask refuses falls back to the compiled per-row
// evaluator, so every predicate is supported. mask must be zeroed and hold
// at least (t.NumRows()+63)/64 words.
func FillMask(p Predicate, t *relation.Table, mask []uint64) {
	if CompileMask(p, t, mask) {
		return
	}
	fn := Compile(p, t)
	n := t.NumRows()
	for r := 0; r < n; r++ {
		if fn(r) {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// MaskCompare sets the bit of every row whose value satisfies (v op lit).
// The operator switch runs once; each arm is a tight branchless loop (the
// bool-to-bit conversion compiles to a flag set, so ~50%-selective cuts pay
// no branch mispredictions). The storage backend runs the same kernel over
// decoded pages and over packed codes, whose unsigned order is value order.
func MaskCompare[T int64 | uint64 | float64 | string](vals []T, op Op, lit T, mask []uint64) {
	switch op {
	case Eq:
		for r, v := range vals {
			var b uint64
			if v == lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Ne:
		for r, v := range vals {
			var b uint64
			if v != lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Lt:
		for r, v := range vals {
			var b uint64
			if v < lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Le:
		for r, v := range vals {
			var b uint64
			if v <= lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Gt:
		for r, v := range vals {
			var b uint64
			if v > lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	default: // Ge
		for r, v := range vals {
			var b uint64
			if v >= lit {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	}
}

// MaskCompareCols sets the bit of every row where (l[r] op rt[r]); rt must
// be at least as long as l. Like value.Compare it consults only < and >, so
// all three kinds share one body and a float NaN orders exactly as EvalRow
// has it. The storage backend runs the same kernel over decoded pages.
func MaskCompareCols[T int64 | float64 | string](l, rt []T, op Op, mask []uint64) {
	rt = rt[:len(l)]
	switch op {
	case Eq:
		for r, v := range l {
			var b uint64
			if !(v < rt[r]) && !(v > rt[r]) {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Ne:
		for r, v := range l {
			var b uint64
			if v < rt[r] || v > rt[r] {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Lt:
		for r, v := range l {
			var b uint64
			if v < rt[r] {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Le:
		for r, v := range l {
			var b uint64
			if !(v > rt[r]) {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case Gt:
		for r, v := range l {
			var b uint64
			if v > rt[r] {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	default: // Ge
		for r, v := range l {
			var b uint64
			if !(v < rt[r]) {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	}
}

// maskInList mirrors Compile's IN semantics: NOT IN with a null literal
// matches nothing.
func maskInList[T int64 | string](vals []T, set map[T]struct{}, neg, hasNullLit bool, mask []uint64) {
	if neg && hasNullLit {
		return
	}
	if neg {
		for r, v := range vals {
			if _, found := set[v]; !found {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		return
	}
	for r, v := range vals {
		if _, found := set[v]; found {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// clearNulls clears the bits of null rows (nulls never match a predicate).
func clearNulls(nulls []bool, mask []uint64) {
	for r, isNull := range nulls {
		if isNull {
			mask[r>>6] &^= 1 << (uint(r) & 63)
		}
	}
}

// setAll sets bits [0, n), leaving the last word's tail clear.
func setAll(mask []uint64, n int) {
	for w := 0; w < n>>6; w++ {
		mask[w] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		mask[n>>6] = (1 << uint(rem)) - 1
	}
}
