package predicate

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

// TestCompileScanSupportMatchesCompileMask pins CompileScan's reach to
// FillMask's: both take every shape, kind mismatches and NULL literals
// included, and every leaf of the compiled plan reads its column as the
// column's kind. (The plan's answers are checked against the oracle over
// encoded pages in shapes_test.go.)
func TestCompileScanSupportMatchesCompileMask(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		// Supported comparisons, one per op and column kind.
		NewComparison("x", Lt, value.Int(15)),
		NewComparison("x", Eq, value.Int(25)),
		NewComparison("f", Lt, value.Float(2.0)),
		NewComparison("f", Ge, value.Int(1)),
		NewComparison("s", Eq, value.String("banana")),
		NewComparison("s", Lt, value.String("b")),
		NewComparison("missing", Lt, value.Int(1)),
		// Kind mismatches: unsupported in both paths.
		NewComparison("x", Lt, value.Float(1.5)),
		NewComparison("x", Eq, value.String("five")),
		NewComparison("s", Eq, value.Int(5)),
		NewComparison("f", Eq, value.String("one")),
		NewComparison("f", Eq, value.Null),
		// IN lists.
		NewIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Null),
		NewIn("s", value.String("apple"), value.String("apricot")),
		NewNotIn("s", value.String("apple")),
		NewIn("x", value.Float(5.0), value.Int(25)), // float lit on int col: skipped, still supported
		NewIn("f", value.Float(1.5)),                // float column IN: unsupported in both
		NewIn("missing", value.Int(1)),
		// LIKE.
		NewLike("s", "ap%"),
		NewNotLike("s", "%na"),
		NewLike("x", "a%"),       // non-string column: matches nothing, supported
		NewLike("missing", "a%"), // missing column: matches nothing, supported
		// Composites.
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Eq, value.Int(10))),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewLike("s", "%e")),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("x", Lt, value.Float(1.5))),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewIn("f", value.Float(1.5))),
		// Column pairs: same kind pushed down, mixed kinds refused by both.
		&ColumnComparison{Left: "x", Op: Lt, Right: "y"},
		&ColumnComparison{Left: "f", Op: Ge, Right: "f"},
		&ColumnComparison{Left: "s", Op: Ne, Right: "s"},
		&ColumnComparison{Left: "x", Op: Eq, Right: "missing"},
		&ColumnComparison{Left: "missing", Op: Eq, Right: "nope"},
		&ColumnComparison{Left: "f", Op: Lt, Right: "x"},
		&ColumnComparison{Left: "x", Op: Lt, Right: "f"},
		&ColumnComparison{Left: "s", Op: Eq, Right: "x"},
		NewOr(NewComparison("x", Eq, value.Int(5)), &ColumnComparison{Left: "x", Op: Lt, Right: "y"}),
		NewAnd(NewComparison("x", Eq, value.Int(5)), &ColumnComparison{Left: "f", Op: Lt, Right: "x"}),
		True(),
		False(),
	}
	for _, p := range preds {
		if err := scanKinds(CompileScan(p, tab.Schema()), tab.Schema()); err != "" {
			t.Errorf("%s: %s", p, err)
		}
		evalAll(t, p, tab)
	}
}

// scanKinds checks that every leaf of a compiled plan reads its columns
// as their kinds, returning what is wrong or "".
func scanKinds(n ScanNode, s *relation.Schema) string {
	is := func(col int, want value.Kind) bool { return col >= 0 && s.Column(col).Type == want }
	ok := true
	switch q := n.(type) {
	case *ScanAnd:
		for _, c := range q.Children {
			if err := scanKinds(c, s); err != "" {
				return err
			}
		}
	case *ScanOr:
		for _, c := range q.Children {
			if err := scanKinds(c, s); err != "" {
				return err
			}
		}
	case *ScanCmpInt:
		ok = is(q.Col, value.KindInt)
	case *ScanCmpFloat:
		ok = is(q.Col, value.KindFloat) && q.Lit == q.Lit
	case *ScanCmpStr:
		ok = is(q.Col, value.KindString)
	case *ScanBand:
		ok = is(q.Col, q.Lo.Kind()) && q.Lo.Kind() == q.Hi.Kind()
	case *ScanCmpCols:
		ok = is(q.Left, q.LeftKind) && is(q.Right, q.RightKind) && comparableKinds(q.LeftKind, q.RightKind)
	case *ScanInInt:
		ok = is(q.Col, value.KindInt)
	case *ScanInStr:
		ok = is(q.Col, value.KindString)
	case *ScanLike:
		ok = is(q.Col, value.KindString)
	}
	if !ok {
		return fmt.Sprintf("leaf %#v misreads its column", n)
	}
	return ""
}

// TestCompileScanNormalization checks the literal pre-processing the
// storage engine relies on: sorted distinct IN lists with integral float
// literals as ints, NULL-poisoned NOT IN, matcher specialization, and
// missing-column collapse.
func TestCompileScanNormalization(t *testing.T) {
	tab := testTable(t)
	s := tab.Schema()

	node := CompileScan(NewNotIn("x", value.Int(9), value.Int(3), value.Int(9), value.Float(7), value.Float(7.5)), s)
	in := node.(*ScanInInt)
	if !in.Negate {
		t.Error("NOT IN lost its negation")
	}
	if want := []int64{3, 7, 9}; !slices.Equal(in.Sorted, want) {
		t.Errorf("sorted int lits = %v, want %v", in.Sorted, want)
	}

	node = CompileScan(NewIn("s", value.String("pear"), value.String("fig"), value.String("pear")), s)
	ins := node.(*ScanInStr)
	if !sort.StringsAreSorted(ins.Sorted) || len(ins.Sorted) != 2 {
		t.Errorf("string lits not sorted-distinct: %v", ins.Sorted)
	}

	lk := CompileScan(NewLike("s", "ap%"), s).(*ScanLike)
	if !lk.Match([]byte("apple")) || lk.Match([]byte("pear")) {
		t.Error("LIKE matcher not specialized correctly")
	}

	node = CompileScan(&ColumnComparison{Left: "x", Op: Le, Right: "y"}, s)
	if cc, isPair := node.(*ScanCmpCols); !isPair || cc.Left != s.Ordinal("x") || cc.Right != s.Ordinal("y") || cc.Op != Le {
		t.Errorf("x <= y compiled to %#v", node)
	}

	for _, p := range []Predicate{
		NewComparison("missing", Lt, value.Int(1)),
		NewIn("missing", value.Int(1)),
		NewLike("missing", "a%"),
		NewLike("x", "a%"),
		&ColumnComparison{Left: "x", Op: Lt, Right: "missing"},
		&ColumnComparison{Left: "missing", Op: Lt, Right: "f"},
		&ColumnComparison{Left: "s", Op: Lt, Right: "f"},
		NewNotIn("x", value.Int(5), value.Null),
		NewNotIn("s", value.String("a"), value.Float(math.NaN())),
		NewComparison("f", Ne, value.Float(math.NaN())),
		NewComparison("x", Eq, value.String("five")),
	} {
		node := CompileScan(p, s)
		if c, isConst := node.(ScanConst); !isConst || bool(c) {
			t.Errorf("%s: want ScanConst(false), got %#v", p, node)
		}
	}
}
