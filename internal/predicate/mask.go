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
		strs := at(&g.strs[0], t.Strings(ci), rows)
		MaskRows(len(strs), mask, func(r int) bool { return match(strs[r]) != q.Negate_ })
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
			SetAll(mask, n)
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

// The mask kernels build each 64-row word in a register and store it
// once: row j of a chunk shifts in at the top, w = w>>1 | b<<63, so after
// a chunk of k rows row 0 sits at bit 64-k and one shift by 64-k lands
// every row on its own bit. The shift-in needs no variable shift count,
// and the bool-to-bit conversion (oneIf) compiles to a flag set, so
// ~50%-selective cuts pay no branch mispredictions.

// oneIf is b as a 0/1 word, without a branch.
func oneIf(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// chunk is rows [base, base+64) of vals, shorter at the tail.
func chunk[T any](vals []T, base int) []T { return vals[base:min(base+64, len(vals))] }

// land ORs a chunk's register word w of k rows into the mask word at base.
func land(mask []uint64, base, k int, w uint64) { mask[base>>6] |= w >> (uint(64-k) & 63) }

// MaskCompare sets the bit of every row whose value satisfies (v op lit).
// The operator switch runs once per 64 rows, each arm a tight loop. "<>"
// is "<" or ">", so a NaN matches no operator.
func MaskCompare[T int64 | float64 | string](vals []T, op Op, lit T, mask []uint64) {
	for base := 0; base < len(vals); base += 64 {
		c := chunk(vals, base)
		var w uint64
		switch op {
		case Eq:
			for _, v := range c {
				w = w>>1 | oneIf(v == lit)<<63
			}
		case Ne:
			for _, v := range c {
				w = w>>1 | oneIf(v < lit || v > lit)<<63
			}
		case Lt:
			for _, v := range c {
				w = w>>1 | oneIf(v < lit)<<63
			}
		case Le:
			for _, v := range c {
				w = w>>1 | oneIf(v <= lit)<<63
			}
		case Gt:
			for _, v := range c {
				w = w>>1 | oneIf(v > lit)<<63
			}
		default: // Ge
			for _, v := range c {
				w = w>>1 | oneIf(v >= lit)<<63
			}
		}
		land(mask, base, len(c), w)
	}
}

// MaskCompareCols sets the bit of every row where (l[r] op rt[r]); rt must
// be at least as long as l. Like MaskCompare, "<>" is "<" or ">", so a NaN
// on either side matches no operator. ">" and ">=" run as "<" and "<="
// with the sides swapped.
func MaskCompareCols[T int64 | float64 | string](l, rt []T, op Op, mask []uint64) {
	if op == Gt || op == Ge {
		l, rt, op = rt[:len(l)], l, op.Mirror()
	}
	for base := 0; base < len(l); base += 64 {
		c := chunk(l, base)
		r := rt[base : base+len(c)]
		var w uint64
		switch op {
		case Eq:
			for j, v := range c {
				w = w>>1 | oneIf(v == r[j])<<63
			}
		case Ne:
			for j, v := range c {
				w = w>>1 | oneIf(v < r[j] || v > r[j])<<63
			}
		case Lt:
			for j, v := range c {
				w = w>>1 | oneIf(v < r[j])<<63
			}
		default: // Le
			for j, v := range c {
				w = w>>1 | oneIf(v <= r[j])<<63
			}
		}
		land(mask, base, len(c), w)
	}
}

// MaskBand sets the bit of every row whose value, as a word, lies in
// [lo, hi] (lo ≤ hi as words), or lies outside it when neg: each row
// costs one subtract and one unsigned compare, v in [lo, hi] ⇔
// v-lo ≤ hi-lo, wrapping. Over int64 values a signed range lo ≤ hi is a
// band of their two's-complement words.
func MaskBand[T int64 | uint64](vals []T, lo, hi uint64, neg bool, mask []uint64) {
	span := hi - lo
	flip := -oneIf(neg)
	for base := 0; base < len(vals); base += 64 {
		c := chunk(vals, base)
		var w uint64
		for _, v := range c {
			w = w>>1 | oneIf(uint64(v)-lo <= span)<<63
		}
		land(mask, base, len(c), w^flip)
	}
}

// MaskMembers sets the bit of every row whose code is in the member
// bitset, or is not when neg. Every code must index a bit of member.
func MaskMembers(codes, member []uint64, neg bool, mask []uint64) {
	flip := -oneIf(neg)
	for base := 0; base < len(codes); base += 64 {
		c := chunk(codes, base)
		var w uint64
		for _, v := range c {
			w = w>>1 | member[v>>6]>>(v&63)<<63
		}
		land(mask, base, len(c), w^flip)
	}
}

// MaskRows sets bit r of mask for every row r < n where match(r). It is
// the register-word loop of the kernels whose per-row test costs more
// than the call: string bytes, exact int/float comparisons, map probes,
// LIKE matchers.
func MaskRows(n int, mask []uint64, match func(r int) bool) {
	for base := 0; base < n; base += 64 {
		k := min(64, n-base)
		var w uint64
		for r := base; r < base+k; r++ {
			w = w>>1 | oneIf(match(r))<<63
		}
		land(mask, base, k, w)
	}
}

// MaskCompareIntFloat sets the bit of every row where (l[r] op rt[r]) for
// an int and a float column, compared exactly (value.CompareIntFloat); a
// NaN matches no operator. rt must be at least as long as l.
func MaskCompareIntFloat(l []int64, rt []float64, op Op, mask []uint64) {
	rt = rt[:len(l)]
	MaskRows(len(l), mask, func(r int) bool {
		f := rt[r]
		return f == f && op.Apply(value.CompareIntFloat(l[r], f))
	})
}

// maskInList sets the bit of every row whose value is in set, or is not
// when neg.
func maskInList[T int64 | string](vals []T, set map[T]struct{}, neg bool, mask []uint64) {
	MaskRows(len(vals), mask, func(r int) bool {
		_, found := set[vals[r]]
		return found != neg
	})
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

// SetAll sets bits [0, n) of mask, leaving the last word's tail clear.
func SetAll(mask []uint64, n int) {
	for w := 0; w < n>>6; w++ {
		mask[w] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		mask[n>>6] = (1 << uint(rem)) - 1
	}
}
