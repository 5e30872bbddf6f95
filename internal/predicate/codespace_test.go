package predicate

import (
	"sort"
	"testing"

	"mto/internal/value"
)

// TestCompileScanSupportMatchesCompileMask pins CompileScan's support
// matrix to CompileMask's: the compressed path must accept exactly the
// shapes the mask path accepts, so the engine's fallback decision is the
// same no matter which path runs.
func TestCompileScanSupportMatchesCompileMask(t *testing.T) {
	tab := testTable(t)
	kindOf := tableKinds(tab)
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
		mask := make([]uint64, (tab.NumRows()+63)/64)
		maskOK := CompileMask(p, tab, mask)
		_, scanOK := CompileScan(p, kindOf)
		if maskOK != scanOK {
			t.Errorf("%s: CompileMask supported=%v but CompileScan supported=%v", p, maskOK, scanOK)
		}
	}
}

// TestCompileScanNormalization checks the literal pre-processing the
// storage engine relies on: sorted distinct IN lists, null-literal
// flags, matcher specialization, and missing-column collapse.
func TestCompileScanNormalization(t *testing.T) {
	tab := testTable(t)
	kindOf := tableKinds(tab)

	node, ok := CompileScan(NewNotIn("x", value.Int(9), value.Int(3), value.Int(9), value.Null, value.Float(7)), kindOf)
	if !ok {
		t.Fatal("int NOT IN refused")
	}
	in := node.(*ScanInInt)
	if !in.Negate || !in.HasNullLit {
		t.Errorf("NOT IN flags: negate=%v hasNullLit=%v", in.Negate, in.HasNullLit)
	}
	if want := []int64{3, 9}; len(in.Sorted) != 2 || in.Sorted[0] != want[0] || in.Sorted[1] != want[1] {
		t.Errorf("sorted int lits = %v, want %v", in.Sorted, want)
	}
	if _, found := in.Set[7]; found {
		t.Error("float literal leaked into int IN set")
	}

	node, ok = CompileScan(NewIn("s", value.String("pear"), value.String("fig"), value.String("pear")), kindOf)
	if !ok {
		t.Fatal("string IN refused")
	}
	ins := node.(*ScanInStr)
	if !sort.StringsAreSorted(ins.Sorted) || len(ins.Sorted) != 2 {
		t.Errorf("string lits not sorted-distinct: %v", ins.Sorted)
	}

	node, ok = CompileScan(NewLike("s", "ap%"), kindOf)
	if !ok {
		t.Fatal("LIKE refused")
	}
	lk := node.(*ScanLike)
	if !lk.Match([]byte("apple")) || lk.Match([]byte("pear")) {
		t.Error("LIKE matcher not specialized correctly")
	}

	node, ok = CompileScan(&ColumnComparison{Left: "x", Op: Le, Right: "y"}, kindOf)
	if cc, isPair := node.(*ScanCmpCols); !ok || !isPair || cc.Left != "x" || cc.Right != "y" || cc.Op != Le {
		t.Errorf("x <= y compiled to %#v (ok=%v)", node, ok)
	}

	for _, p := range []Predicate{
		NewComparison("missing", Lt, value.Int(1)),
		NewIn("missing", value.Int(1)),
		NewLike("missing", "a%"),
		NewLike("x", "a%"),
		&ColumnComparison{Left: "x", Op: Lt, Right: "missing"},
		&ColumnComparison{Left: "missing", Op: Lt, Right: "f"},
	} {
		node, ok := CompileScan(p, kindOf)
		if !ok {
			t.Fatalf("%s: refused", p)
		}
		if c, isConst := node.(ScanConst); !isConst || bool(c) {
			t.Errorf("%s: want ScanConst(false), got %#v", p, node)
		}
	}
}
