package predicate

import (
	"sort"

	"mto/internal/value"
)

// ScanNode is a predicate compiled for compressed-domain execution: a plan
// tree whose leaves carry kind-checked, pre-normalized literals (IN sets
// built and sorted, LIKE matchers specialized) so a storage engine can
// evaluate them directly against encoded column pages — comparing
// dictionary codes or bit-packed words — without materializing values.
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

// ScanCmpInt is an int-column comparison against an int literal.
type ScanCmpInt struct {
	Column string
	Op     Op
	Lit    int64
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
}

// ScanCmpCols compares two columns of one table that share a kind (int,
// float or string): Left Op Right. A row with NULL on either side never
// matches, and values order as value.Compare orders them.
type ScanCmpCols struct {
	Left, Right string
	Op          Op
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
}

// ScanInStr is col [NOT] IN over a string column.
type ScanInStr struct {
	Column     string
	Set        map[string]struct{}
	Sorted     []string
	Negate     bool
	HasNullLit bool
}

// ScanLike is col [NOT] LIKE over a string column, with the matcher
// specialized once at compile time (exact/prefix/suffix/substring shapes
// avoid the recursive wildcard walk).
type ScanLike struct {
	Column  string
	Pattern string
	Match   func(string) bool
	Negate  bool
}

func (*ScanAnd) scanNode()      {}
func (*ScanOr) scanNode()       {}
func (ScanConst) scanNode()     {}
func (*ScanCmpInt) scanNode()   {}
func (*ScanCmpFloat) scanNode() {}
func (*ScanCmpStr) scanNode()   {}
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
			return &ScanCmpInt{Column: q.Column, Op: q.Op, Lit: q.Value.Int()}
		case value.KindFloat:
			return &ScanCmpFloat{Column: q.Column, Op: q.Op, Lit: q.Value.AsFloat()}
		default:
			return &ScanCmpStr{Column: q.Column, Op: q.Op, Lit: q.Value.Str()}
		}
	case *ColumnComparison:
		_, lok := kindOf(q.Left)
		_, rok := kindOf(q.Right)
		if !lok || !rok {
			return ScanConst(false) // a missing side reads as NULL: matches nothing
		}
		return &ScanCmpCols{Left: q.Left, Right: q.Right, Op: q.Op}
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
		return node
	case *Like:
		kind, ok := kindOf(q.Column)
		if !ok || kind != value.KindString {
			return ScanConst(false) // missing or non-string column: matches nothing
		}
		return &ScanLike{
			Column:  q.Column,
			Pattern: q.Pattern,
			Match:   likeMatcher(q.Pattern),
			Negate:  q.Negate_,
		}
	case *And:
		node := &ScanAnd{Children: make([]ScanNode, len(q.Children))}
		for i, c := range q.Children {
			node.Children[i] = compileScan(c, kindOf)
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
