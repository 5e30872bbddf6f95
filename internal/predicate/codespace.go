package predicate

import (
	"sort"
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
// CompileScan's support matrix is CompileMask's — both ask supportedShape —
// so it returns ok=false precisely when CompileMask would refuse (callers
// then evaluate the filter themselves), and the leaf semantics — including
// null handling and NOT IN with a null literal — match CompileMask bit for
// bit. Keeping the two in lockstep is what lets the compressed scan path
// promise byte-identical results.
type ScanNode interface {
	scanNode()
}

// ScanAnd matches rows matched by every child.
type ScanAnd struct{ Children []ScanNode }

// ScanOr matches rows matched by at least one child.
type ScanOr struct{ Children []ScanNode }

// ScanConst matches every row (true) or no row (false). Missing-column
// leaves compile to ScanConst(false): they match nothing, like
// CompileMask's zero mask. It never touches a null bitmap — there is no
// column behind it.
type ScanConst bool

// ZoneEval is a leaf's zone-map decision: CompileRanges of the predicate
// the leaf was compiled from, so a block's zone map decides the leaf
// exactly as EvalRanges decides that predicate. TriTrue means every
// non-null row matches, TriFalse that none does. It is nil where a zone
// decision could disagree with the row kernel: float columns (a NaN never
// enters a zone map's bounds), IN lists with literals of another kind (the
// zone compares int and float numerically, the kernel skips them), and NOT
// IN with a NULL literal (which matches nothing).
type ZoneEval func(Ranges) Tri

// ScanCmpInt is an int-column comparison against an int literal.
type ScanCmpInt struct {
	Column string
	Op     Op
	Lit    int64
	Zone   ZoneEval
}

// ScanCmpFloat is a float-column comparison; int literals arrive widened
// via AsFloat, mirroring CompileMask.
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

// ScanCmpCols compares two columns of one table that share a kind (int,
// float or string): Left Op Right. A row with NULL on either side never
// matches, and values order as value.Compare orders them.
type ScanCmpCols struct {
	Left, Right string
	Op          Op
	Zone        ZoneEval
}

// ScanInInt is col [NOT] IN over an int column. Set holds the int-kind
// literals; Sorted is the same values ascending and distinct, for
// merge-joins against sorted page dictionaries. HasNullLit records a NULL
// literal: NOT IN with a NULL literal matches nothing.
type ScanInInt struct {
	Column     string
	Set        map[int64]struct{}
	Sorted     []int64
	Negate     bool
	HasNullLit bool
	Zone       ZoneEval
}

// ScanInStr is col [NOT] IN over a string column.
type ScanInStr struct {
	Column     string
	Set        map[string]struct{}
	Sorted     []string
	Negate     bool
	HasNullLit bool
	Zone       ZoneEval
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
// ok=false from kindOf). All literal normalization — kind checks, IN-set
// construction and sorting, LIKE matcher specialization — happens here,
// once per (query, table), so per-page evaluation only translates the
// normalized literals into each page's code space.
//
// It reports ok=false exactly when CompileMask would — both ask
// supportedShape — and the caller must then evaluate the whole predicate
// itself.
func CompileScan(p Predicate, kindOf func(col string) (value.Kind, bool)) (ScanNode, bool) {
	if !supportedShape(p, kindOf) {
		return nil, false
	}
	return compileScan(p, kindOf), true
}

// compileScan builds the plan tree of a predicate supportedShape accepted.
func compileScan(p Predicate, kindOf func(col string) (value.Kind, bool)) ScanNode {
	switch q := p.(type) {
	case *Comparison:
		kind, ok := kindOf(q.Column)
		if !ok {
			return ScanConst(false) // no such column: matches nothing
		}
		switch kind {
		case value.KindInt:
			return &ScanCmpInt{Column: q.Column, Op: q.Op, Lit: q.Value.Int(), Zone: CompileRanges(q)}
		case value.KindFloat:
			return &ScanCmpFloat{Column: q.Column, Op: q.Op, Lit: q.Value.AsFloat()}
		default:
			return &ScanCmpStr{Column: q.Column, Op: q.Op, Lit: q.Value.Str(), Zone: CompileRanges(q)}
		}
	case *ColumnComparison:
		kind, lok := kindOf(q.Left)
		_, rok := kindOf(q.Right)
		if !lok || !rok {
			return ScanConst(false) // a missing side reads as NULL: matches nothing
		}
		node := &ScanCmpCols{Left: q.Left, Right: q.Right, Op: q.Op}
		if kind != value.KindFloat {
			node.Zone = CompileRanges(q)
		}
		return node
	case *InList:
		kind, ok := kindOf(q.Column)
		if !ok {
			return ScanConst(false)
		}
		if kind == value.KindInt {
			node := &ScanInInt{
				Column: q.Column,
				Set:    make(map[int64]struct{}, len(q.Values)),
				Negate: q.Negate_,
			}
			for _, v := range q.Values {
				switch {
				case v.IsNull():
					node.HasNullLit = true
				case v.Kind() == value.KindInt:
					node.Set[v.Int()] = struct{}{}
				}
			}
			node.Sorted = make([]int64, 0, len(node.Set))
			for v := range node.Set {
				node.Sorted = append(node.Sorted, v)
			}
			sort.Slice(node.Sorted, func(i, j int) bool { return node.Sorted[i] < node.Sorted[j] })
			node.Zone = inListZone(q, kind)
			return node
		}
		node := &ScanInStr{
			Column: q.Column,
			Set:    make(map[string]struct{}, len(q.Values)),
			Negate: q.Negate_,
		}
		for _, v := range q.Values {
			switch {
			case v.IsNull():
				node.HasNullLit = true
			case v.Kind() == value.KindString:
				node.Set[v.Str()] = struct{}{}
			}
		}
		node.Sorted = make([]string, 0, len(node.Set))
		for v := range node.Set {
			node.Sorted = append(node.Sorted, v)
		}
		sort.Strings(node.Sorted)
		node.Zone = inListZone(q, kind)
		return node
	case *Like:
		kind, ok := kindOf(q.Column)
		if !ok || kind != value.KindString {
			return ScanConst(false) // missing or non-string column: matches nothing
		}
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
		return node
	case Const:
		return ScanConst(bool(q))
	}
	panic("predicate: compileScan on a shape supportedShape refused")
}

// inListZone is an IN leaf's zone evaluator, nil (never decided) when a
// literal of another kind would make EvalRanges disagree with the kernel,
// or when NOT IN has a NULL literal.
func inListZone(q *InList, kind value.Kind) ZoneEval {
	for _, v := range q.Values {
		if v.IsNull() && q.Negate_ || !v.IsNull() && v.Kind() != kind {
			return nil
		}
	}
	return CompileRanges(q)
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
