package predicate

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

	"mto/internal/value"
)

// ScanNode is a predicate compiled for compressed-domain execution: a plan
// tree whose leaves carry kind-checked, pre-normalized literals (IN sets
// built and sorted, LIKE matchers specialized) so a storage engine can
// evaluate them directly against encoded column pages — comparing
// dictionary codes or bit-packed words — without materializing values.
// Each column leaf also carries its ZoneEval, so a block's zone map can
// decide it before any page is decoded, and two bounds on one column under
// an AND compile to one ScanBand.
//
// CompileScan normalizes the predicate exactly as FillMask does, so it
// takes every filter, and each leaf's semantics — null and NaN handling
// included — match FillMask's kernels bit for bit. Keeping the two in
// lockstep is what lets the compressed scan path promise byte-identical
// results.
type ScanNode interface {
	scanNode()
}

// ScanAnd matches rows matched by every child.
type ScanAnd struct{ Children []ScanNode }

// ScanOr matches rows matched by at least one child.
type ScanOr struct{ Children []ScanNode }

// ScanConst matches every row (true) or no row (false). Leaves normalize
// turns into Const(false) — a missing column, a NULL, NaN or other-kind
// literal — compile to ScanConst(false). It never touches a null bitmap —
// there is no column behind it.
type ScanConst bool

// ZoneEval is a leaf's zone-map decision: CompileRanges of the normalized
// predicate the leaf was compiled from. TriTrue means every non-null row
// matches, TriFalse that none does. It is nil on leaves over a float
// column: a zone map's bounds leave NaN rows out, so its TriTrue would
// claim rows that match nothing.
type ZoneEval func(Ranges) Tri

// ScanCmpInt is an int-column comparison against an int literal.
type ScanCmpInt struct {
	Column string
	Op     Op
	Lit    int64
	Zone   ZoneEval
}

// ScanCmpFloat is a float-column comparison against a float literal that
// is not NaN; normalize has made an int literal its exact float bound.
type ScanCmpFloat struct {
	Column string
	Op     Op
	Lit    float64
}

// ScanCmpStr is a string-column comparison against a string literal.
// Sorted dictionary pages evaluate it as a code-range test.
type ScanCmpStr struct {
	Column string
	Op     Op
	Lit    string
	Zone   ZoneEval
}

// ScanBand is Lo ≤/< Column ≤/< Hi over an int or string column (Lo and
// Hi are literals of that kind; LoInc / HiInc say whether each bound is
// inclusive): a lower and an upper comparison on one column under one AND,
// fused so a page compares each code against one range, not twice.
type ScanBand struct {
	Column       string
	Lo, Hi       value.Value
	LoInc, HiInc bool
	Zone         ZoneEval
}

// Ints is an int band's inclusive bounds; ok is false when no int lies
// between them.
func (b *ScanBand) Ints() (lo, hi int64, ok bool) {
	lo, hi = b.Lo.Int(), b.Hi.Int()
	if !b.LoInc {
		if lo == math.MaxInt64 {
			return 0, 0, false
		}
		lo++
	}
	if !b.HiInc {
		if hi == math.MinInt64 {
			return 0, 0, false
		}
		hi--
	}
	return lo, hi, lo <= hi
}

// ScanCmpCols compares two columns of one table: Left Op Right, of one
// kind (int, float or string) or an int and a float, compared exactly. A
// row with NULL or NaN on either side never matches. LeftKind and
// RightKind are the columns' kinds.
type ScanCmpCols struct {
	Left, Right         string
	LeftKind, RightKind value.Kind
	Op                  Op
	Zone                ZoneEval
}

// ScanInInt is col [NOT] IN over an int column. Set holds the literals;
// Sorted is the same values ascending and distinct, for merge-joins
// against sorted page dictionaries.
type ScanInInt struct {
	Column string
	Set    map[int64]struct{}
	Sorted []int64
	Negate bool
	Zone   ZoneEval
}

// ScanInStr is col [NOT] IN over a string column.
type ScanInStr struct {
	Column string
	Set    map[string]struct{}
	Sorted []string
	Negate bool
	Zone   ZoneEval
}

// ScanLike is col [NOT] LIKE over a string column, with the matcher
// specialized once at compile time (exact/prefix/suffix/substring shapes
// avoid the recursive wildcard walk); Match reads bytes in place, keeping none.
type ScanLike struct {
	Column  string
	Pattern string
	Match   func([]byte) bool
	Negate  bool
	Zone    ZoneEval
}

func (*ScanAnd) scanNode()      {}
func (*ScanOr) scanNode()       {}
func (ScanConst) scanNode()     {}
func (*ScanCmpInt) scanNode()   {}
func (*ScanCmpFloat) scanNode() {}
func (*ScanCmpStr) scanNode()   {}
func (*ScanBand) scanNode()     {}
func (*ScanCmpCols) scanNode()  {}
func (*ScanInInt) scanNode()    {}
func (*ScanInStr) scanNode()    {}
func (*ScanLike) scanNode()     {}

// CompileScan compiles p for compressed-domain evaluation against a table
// whose column kinds are reported by kindOf (missing columns return
// ok=false from kindOf). All literal work — normalization, IN-set
// construction and sorting, LIKE matcher specialization — happens here,
// once per (query, table), so per-page evaluation only translates the
// normalized literals into each page's code space.
func CompileScan(p Predicate, kindOf func(col string) (value.Kind, bool)) ScanNode {
	return compileScan(normalize(p, kindOf), kindOf)
}

// compileScan builds the plan tree of a normalized predicate.
func compileScan(p Predicate, kindOf func(col string) (value.Kind, bool)) ScanNode {
	switch q := p.(type) {
	case *Comparison:
		switch kind, _ := kindOf(q.Column); kind {
		case value.KindInt:
			return &ScanCmpInt{Column: q.Column, Op: q.Op, Lit: q.Value.Int(), Zone: CompileRanges(q)}
		case value.KindFloat:
			return &ScanCmpFloat{Column: q.Column, Op: q.Op, Lit: q.Value.Float()}
		default:
			return &ScanCmpStr{Column: q.Column, Op: q.Op, Lit: q.Value.Str(), Zone: CompileRanges(q)}
		}
	case *ColumnComparison:
		lk, _ := kindOf(q.Left)
		rk, _ := kindOf(q.Right)
		node := &ScanCmpCols{Left: q.Left, Right: q.Right, LeftKind: lk, RightKind: rk, Op: q.Op}
		if lk != value.KindFloat && rk != value.KindFloat {
			node.Zone = CompileRanges(q)
		}
		return node
	case *InList:
		if kind, _ := kindOf(q.Column); kind == value.KindInt {
			node := &ScanInInt{Column: q.Column, Set: intSet(q.Values), Negate: q.Negate_, Zone: CompileRanges(q)}
			node.Sorted = sortedKeys(node.Set)
			return node
		}
		node := &ScanInStr{Column: q.Column, Set: strSet(q.Values), Negate: q.Negate_, Zone: CompileRanges(q)}
		node.Sorted = sortedKeys(node.Set)
		return node
	case *Like:
		match := likeMatcher(q.Pattern)
		return &ScanLike{
			Column:  q.Column,
			Pattern: q.Pattern,
			Match:   func(b []byte) bool { return match(unsafe.String(unsafe.SliceData(b), len(b))) },
			Negate:  q.Negate_,
			Zone:    CompileRanges(q),
		}
	case *And:
		node := &ScanAnd{}
		fused := make([]bool, len(q.Children))
		for i, c := range q.Children {
			if fused[i] {
				continue
			}
			if band, j := fuseBand(q.Children, i, fused, kindOf); band != nil {
				fused[j] = true
				node.Children = append(node.Children, band)
				continue
			}
			node.Children = append(node.Children, compileScan(c, kindOf))
		}
		if len(node.Children) == 1 {
			return node.Children[0]
		}
		return node
	case *Or:
		node := &ScanOr{Children: make([]ScanNode, len(q.Children))}
		for i, c := range q.Children {
			node.Children[i] = compileScan(c, kindOf)
		}
		if union := unionBands(node.Children); union != nil {
			return union
		}
		return node
	}
	return ScanConst(p.(Const))
}

// unionBands compiles an OR of int bands on one column to the union of
// their intervals, so a page scans the column once per disjoint range:
// overlapping and adjacent (hi+1 == lo) bands merge into one. It returns
// nil when kids are not all int bands on one column, or none holds an int.
func unionBands(kids []ScanNode) ScanNode {
	type span struct{ lo, hi int64 }
	var spans []span
	col := ""
	for _, k := range kids {
		b, ok := k.(*ScanBand)
		if !ok || b.Lo.Kind() != value.KindInt || col != "" && b.Column != col {
			return nil
		}
		col = b.Column
		if lo, hi, ok := b.Ints(); ok {
			spans = append(spans, span{lo, hi})
		}
	}
	if len(spans) == 0 {
		return nil
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	merged := spans[:1]
	for _, s := range spans[1:] {
		// s.lo > last.hi ≥ MinInt64 when the first test fails, so s.lo-1
		// cannot wrap.
		if last := &merged[len(merged)-1]; s.lo <= last.hi || s.lo-1 == last.hi {
			last.hi = max(last.hi, s.hi)
		} else {
			merged = append(merged, s)
		}
	}
	out := &ScanOr{}
	for _, s := range merged {
		lo, hi := NewComparison(col, Ge, value.Int(s.lo)), NewComparison(col, Le, value.Int(s.hi))
		out.Children = append(out.Children, &ScanBand{Column: col, Lo: lo.Value, Hi: hi.Value, LoInc: true, HiInc: true,
			Zone: CompileRanges(&And{Children: []Predicate{lo, hi}})})
	}
	if len(out.Children) == 1 {
		return out.Children[0]
	}
	return out
}

// sortedKeys returns a set's members ascending.
func sortedKeys[T int64 | string](set map[T]struct{}) []T {
	out := make([]T, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// fuseBand pairs children[i], a lower (Gt/Ge) or upper (Lt/Le) bound on an
// int or string column, with the first later unfused child bounding the
// same column from the other side, returning the band and the partner's
// index (nil when there is none). An AND of the two is the band whatever
// order the conjunction lists them in.
func fuseBand(children []Predicate, i int, fused []bool, kindOf func(col string) (value.Kind, bool)) (*ScanBand, int) {
	lower := func(op Op) bool { return op == Gt || op == Ge }
	a, ok := children[i].(*Comparison)
	if !ok || a.Op == Eq || a.Op == Ne {
		return nil, -1
	}
	if kind, ok := kindOf(a.Column); !ok || kind == value.KindFloat {
		return nil, -1
	}
	for j := i + 1; j < len(children); j++ {
		b, ok := children[j].(*Comparison)
		if fused[j] || !ok || b.Column != a.Column || b.Op == Eq || b.Op == Ne || lower(b.Op) == lower(a.Op) {
			continue
		}
		lo, hi := a, b
		if !lower(a.Op) {
			lo, hi = b, a
		}
		return &ScanBand{Column: a.Column, Lo: lo.Value, Hi: hi.Value, LoInc: lo.Op == Ge, HiInc: hi.Op == Le,
			Zone: CompileRanges(&And{Children: []Predicate{lo, hi}})}, j
	}
	return nil, -1
}
