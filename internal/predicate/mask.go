package predicate

import (
	"mto/internal/relation"
	"mto/internal/value"
)

// FillMask computes p's full-table match mask: bit r of mask is set iff
// row r of t satisfies p. It is total: p is normalized against t's schema
// once, and every normalized shape runs as a tight per-type loop with the
// operator dispatched outside it. mask must be zeroed and hold at least
// (t.NumRows()+63)/64 words.
func FillMask(p Predicate, t *relation.Table, mask []uint64) {
	fill(normalize(p, tableKinds(t)), t, nil, mask, new(Gather))
}

// FillRows is FillMask over a row list: bit k of mask is set iff row
// rows[k] of t satisfies p. Each leaf gathers its column's values at rows
// and runs FillMask's kernel over them. mask must be zeroed and hold at
// least (len(rows)+63)/64 words.
func FillRows(p Predicate, t *relation.Table, rows []int32, mask []uint64) {
	FillRowsInto(p, t, rows, mask, nil)
}

// FillRowsInto is FillRows gathering into g's buffers, which a caller
// filling many row lists reuses from one call to the next (nil: fresh
// buffers).
func FillRowsInto(p Predicate, t *relation.Table, rows []int32, mask []uint64, g *Gather) {
	if g == nil {
		g = new(Gather)
	}
	if len(rows) > 0 {
		fill(normalize(p, tableKinds(t)), t, rows, mask, g)
	}
}

// Gather holds the buffers a fill reuses: the column values a leaf
// gathers at the rows (two per type, for a column pair) and the scratch
// masks of AND and OR. The zero Gather is ready to use; it is not for
// concurrent use.
type Gather struct {
	ints   [2][]int64
	floats [2][]float64
	strs   [2][]string
	nulls  []bool
	masks  [][]uint64 // released scratch masks
}

// at returns vals at rows in *buf, reallocated when too short; vals
// itself when rows is nil.
func at[T any](buf *[]T, vals []T, rows []int32) []T {
	if rows == nil || vals == nil {
		return vals
	}
	if cap(*buf) < len(rows) {
		*buf = make([]T, len(rows))
	}
	out := (*buf)[:len(rows)]
	for k, r := range rows {
		out[k] = vals[r]
	}
	return out
}

// scratchMask returns a zeroed nw-word mask; release it with
// releaseMask.
func (g *Gather) scratchMask(nw int) []uint64 {
	if n := len(g.masks); n > 0 && cap(g.masks[n-1]) >= nw {
		m := g.masks[n-1][:nw]
		g.masks = g.masks[:n-1]
		clear(m)
		return m
	}
	return make([]uint64, nw)
}

func (g *Gather) releaseMask(m []uint64) { g.masks = append(g.masks, m) }

// tableKinds adapts t's schema to the kindOf lookup normalize and
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

// fill evaluates a normalized predicate over rows of t (every row when
// rows is nil) into mask, bit k for the k-th row.
func fill(p Predicate, t *relation.Table, rows []int32, mask []uint64, g *Gather) {
	col := func(name string) int { ci, _ := t.Schema().ColumnIndex(name); return ci }
	switch q := p.(type) {
	case *Comparison:
		ci := col(q.Column)
		switch t.Schema().Column(ci).Type {
		case value.KindInt:
			MaskCompare(at(&g.ints[0], t.Ints(ci), rows), q.Op, q.Value.Int(), mask)
		case value.KindFloat:
			MaskCompare(at(&g.floats[0], t.Floats(ci), rows), q.Op, q.Value.Float(), mask)
		default:
			MaskCompare(at(&g.strs[0], t.Strings(ci), rows), q.Op, q.Value.Str(), mask)
		}
		clearNulls(at(&g.nulls, t.Nulls(ci), rows), mask)
	case *ColumnComparison:
		li, ri := col(q.Left), col(q.Right)
		lk, rk := t.Schema().Column(li).Type, t.Schema().Column(ri).Type
		switch {
		case lk == value.KindInt && rk == value.KindInt:
			MaskCompareCols(at(&g.ints[0], t.Ints(li), rows), at(&g.ints[1], t.Ints(ri), rows), q.Op, mask)
		case lk == value.KindFloat && rk == value.KindFloat:
			MaskCompareCols(at(&g.floats[0], t.Floats(li), rows), at(&g.floats[1], t.Floats(ri), rows), q.Op, mask)
		case lk == value.KindString:
			MaskCompareCols(at(&g.strs[0], t.Strings(li), rows), at(&g.strs[1], t.Strings(ri), rows), q.Op, mask)
		case lk == value.KindInt:
			MaskCompareIntFloat(at(&g.ints[0], t.Ints(li), rows), at(&g.floats[1], t.Floats(ri), rows), q.Op, mask)
		default:
			MaskCompareIntFloat(at(&g.ints[1], t.Ints(ri), rows), at(&g.floats[0], t.Floats(li), rows), q.Op.Mirror(), mask)
		}
		clearNulls(at(&g.nulls, t.Nulls(li), rows), mask)
		clearNulls(at(&g.nulls, t.Nulls(ri), rows), mask)
	case *InList:
		ci := col(q.Column)
		if t.Schema().Column(ci).Type == value.KindInt {
			maskInList(at(&g.ints[0], t.Ints(ci), rows), intSet(q.Values), q.Negate_, mask)
		} else {
			maskInList(at(&g.strs[0], t.Strings(ci), rows), strSet(q.Values), q.Negate_, mask)
		}
		clearNulls(at(&g.nulls, t.Nulls(ci), rows), mask)
	case *Like:
		ci := col(q.Column)
		match := likeMatcher(q.Pattern)
		for r, s := range at(&g.strs[0], t.Strings(ci), rows) {
			if match(s) != q.Negate_ {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		// Null rows never match, not even NOT LIKE.
		clearNulls(at(&g.nulls, t.Nulls(ci), rows), mask)
	case *And, *Or:
		// Each child after the first is evaluated into a clean scratch
		// mask: children AND in conjuncts and clear null-row bits, and
		// either would corrupt the bits accumulated so far.
		kids, and := childrenOf(q)
		fill(kids[0], t, rows, mask, g)
		scratch := g.scratchMask(len(mask))
		defer g.releaseMask(scratch)
		for _, c := range kids[1:] {
			clear(scratch)
			fill(c, t, rows, scratch, g)
			for w := range mask {
				if and {
					mask[w] &= scratch[w]
				} else {
					mask[w] |= scratch[w]
				}
			}
		}
	case Const:
		if bool(q) {
			n := len(rows)
			if rows == nil {
				n = t.NumRows()
			}
			setAll(mask, n)
		}
	}
}

// childrenOf returns an And's or an Or's children, and whether it is the
// And. An empty And or Or never reaches fill: normalize folds them.
func childrenOf(p Predicate) ([]Predicate, bool) {
	if a, ok := p.(*And); ok {
		return a.Children, true
	}
	return p.(*Or).Children, false
}

// MaskCompare sets the bit of every row whose value satisfies (v op lit).
// The operator switch runs once; each arm is a tight branchless loop (the
// bool-to-bit conversion compiles to a flag set, so ~50%-selective cuts pay
// no branch mispredictions). "<>" is "<" or ">", so a NaN matches no
// operator. The storage backend runs the same kernel over decoded pages
// and over packed codes, whose unsigned order is value order.
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
			if v < lit || v > lit {
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
// be at least as long as l. Like MaskCompare, "<>" is "<" or ">", so a NaN
// on either side matches no operator. The storage backend runs the same
// kernel over decoded pages.
func MaskCompareCols[T int64 | float64 | string](l, rt []T, op Op, mask []uint64) {
	rt = rt[:len(l)]
	switch op {
	case Eq:
		for r, v := range l {
			var b uint64
			if v == rt[r] {
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
			if v <= rt[r] {
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
			if v >= rt[r] {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	}
}

// MaskCompareIntFloat sets the bit of every row where (l[r] op rt[r]) for
// an int and a float column, compared exactly (value.CompareIntFloat); a
// NaN matches no operator. rt must be at least as long as l.
func MaskCompareIntFloat(l []int64, rt []float64, op Op, mask []uint64) {
	rt = rt[:len(l)]
	for r, v := range l {
		if f := rt[r]; f == f && op.apply(value.CompareIntFloat(v, f)) {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// maskInList sets the bit of every row whose value is in set, or is not
// when neg.
func maskInList[T int64 | string](vals []T, set map[T]struct{}, neg bool, mask []uint64) {
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

// intSet and strSet are the literal sets of a normalized InList.
func intSet(vals []value.Value) map[int64]struct{} {
	set := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		set[v.Int()] = struct{}{}
	}
	return set
}

func strSet(vals []value.Value) map[string]struct{} {
	set := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		set[v.Str()] = struct{}{}
	}
	return set
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
