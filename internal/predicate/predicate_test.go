package predicate

import (
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

func testTable(t *testing.T) *relation.Table {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "x", Type: value.KindInt},
		relation.Column{Name: "y", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
	))
	// row 0: x=5  y=10 f=1.5 s="apple"
	// row 1: x=15 y=10 f=2.5 s="banana"
	// row 2: x=25 y=20 f=nil s="apricot"
	// row 3: x=nil y=0 f=0.5 s=nil
	tab.MustAppendRow(value.Int(5), value.Int(10), value.Float(1.5), value.String("apple"))
	tab.MustAppendRow(value.Int(15), value.Int(10), value.Float(2.5), value.String("banana"))
	tab.MustAppendRow(value.Int(25), value.Int(20), value.Null, value.String("apricot"))
	tab.MustAppendRow(value.Null, value.Int(0), value.Float(0.5), value.Null)
	return tab
}

// evalAll evaluates p on every row with the oracle, checking FillMask and
// FillRows (over the rows in reverse) against it.
func evalAll(t *testing.T, p Predicate, tab *relation.Table) []bool {
	t.Helper()
	n := tab.NumRows()
	out := make([]bool, n)
	mask := make([]uint64, (n+63)/64)
	FillMask(p, tab, mask)
	rev := make([]int32, n)
	for k := range rev {
		rev[k] = int32(n - 1 - k)
	}
	rmask := make([]uint64, (n+63)/64)
	FillRows(p, tab, rev, rmask)
	for r := 0; r < n; r++ {
		out[r] = evalRow(p, tab, r)
		if got := bit(mask, r); got != out[r] {
			t.Errorf("%s: FillMask disagrees with the oracle at row %d: %v vs %v", p, r, got, out[r])
		}
		if got := bit(rmask, n-1-r); got != out[r] {
			t.Errorf("%s: FillRows disagrees with the oracle at row %d: %v vs %v", p, r, got, out[r])
		}
	}
	return out
}

func bit(mask []uint64, k int) bool { return mask[k>>6]>>(uint(k)&63)&1 == 1 }

func wantRows(t *testing.T, p Predicate, tab *relation.Table, want ...bool) {
	t.Helper()
	got := evalAll(t, p, tab)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %v, want %v", p, i, got[i], want[i])
		}
	}
}

func TestComparisonEval(t *testing.T) {
	tab := testTable(t)
	wantRows(t, NewComparison("x", Lt, value.Int(15)), tab, true, false, false, false)
	wantRows(t, NewComparison("x", Le, value.Int(15)), tab, true, true, false, false)
	wantRows(t, NewComparison("x", Gt, value.Int(15)), tab, false, false, true, false)
	wantRows(t, NewComparison("x", Ge, value.Int(15)), tab, false, true, true, false)
	wantRows(t, NewComparison("x", Eq, value.Int(15)), tab, false, true, false, false)
	wantRows(t, NewComparison("x", Ne, value.Int(15)), tab, true, false, true, false)
	wantRows(t, NewComparison("f", Lt, value.Float(2.0)), tab, true, false, false, true)
	wantRows(t, NewComparison("f", Gt, value.Int(2)), tab, false, true, false, false)
	wantRows(t, NewComparison("s", Ge, value.String("b")), tab, false, true, false, false)
	// Comparisons against NULL are always false, "<>" included.
	wantRows(t, NewComparison("x", Eq, value.Null), tab, false, false, false, false)
	wantRows(t, NewComparison("x", Ne, value.Null), tab, false, false, false, false)
	// Incomparable types are false, "<>" included.
	wantRows(t, NewComparison("s", Eq, value.Int(1)), tab, false, false, false, false)
	wantRows(t, NewComparison("s", Ne, value.Int(1)), tab, false, false, false, false)
}

func TestColumnComparisonEval(t *testing.T) {
	tab := testTable(t)
	wantRows(t, &ColumnComparison{Left: "x", Op: Lt, Right: "y"}, tab, true, false, false, false)
	wantRows(t, &ColumnComparison{Left: "x", Op: Ge, Right: "y"}, tab, false, true, true, false)
	wantRows(t, &ColumnComparison{Left: "x", Op: Eq, Right: "y"}, tab, false, false, false, false)
	wantRows(t, &ColumnComparison{Left: "x", Op: Ne, Right: "y"}, tab, true, true, true, false)
	// null operand → false; an int and a float column compare numerically
	wantRows(t, &ColumnComparison{Left: "f", Op: Lt, Right: "x"}, tab, true, true, false, false)
	wantRows(t, &ColumnComparison{Left: "x", Op: Gt, Right: "f"}, tab, true, true, false, false)
	// a string and a number never compare
	wantRows(t, &ColumnComparison{Left: "s", Op: Ne, Right: "x"}, tab, false, false, false, false)
}

func TestInListEval(t *testing.T) {
	tab := testTable(t)
	wantRows(t, NewIn("x", value.Int(5), value.Int(25)), tab, true, false, true, false)
	wantRows(t, NewNotIn("x", value.Int(5), value.Int(25)), tab, false, true, false, false)
	wantRows(t, NewIn("s", value.String("banana")), tab, false, true, false, false)
	wantRows(t, NewNotIn("s", value.String("banana")), tab, true, false, true, false)
	// NOT IN with a NULL literal is never true.
	wantRows(t, NewNotIn("x", value.Int(5), value.Null), tab, false, false, false, false)
	// IN with a NULL literal ignores the null.
	wantRows(t, NewIn("x", value.Null, value.Int(15)), tab, false, true, false, false)
}

func TestLikeEval(t *testing.T) {
	tab := testTable(t)
	wantRows(t, NewLike("s", "ap%"), tab, true, false, true, false)
	wantRows(t, NewNotLike("s", "ap%"), tab, false, true, false, false)
	wantRows(t, NewLike("s", "%an%"), tab, false, true, false, false)
	wantRows(t, NewLike("s", "a____"), tab, true, false, false, false)
	wantRows(t, NewLike("s", "banana"), tab, false, true, false, false)
	// LIKE on a non-string column is false.
	wantRows(t, NewLike("x", "%"), tab, false, false, false, false)
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a%", "abc", true},
		{"a%", "bbc", false},
		{"%c", "abc", true},
		{"%c", "abd", false},
		{"a%c", "abbbc", true},
		{"a%c", "ac", true},
		{"a%%c", "ac", true},
		{"_b_", "abc", true},
		{"_b_", "ab", false},
		{"a\\%b", "a%b", true},
		{"a\\%b", "axb", false},
		{"%promo%", "PROMO BRUSHED", false}, // case-sensitive
		{"%PROMO%", "PROMO BRUSHED", true},
		{"%%", "", true},
		{"%ED", "PROMO BRUSHED", true},
		{"PROMO BRUSHED", "PROMO BRUSHED", true},
		{"PROMO BRUSHED", "PROMO BRUSHE", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
		// The shape-specialized matcher that scans run over raw bytes agrees
		// with the general walk.
		node := CompileScan(NewLike("s", c.pattern), func(string) (value.Kind, bool) { return value.KindString, true })
		if got := node.(*ScanLike).Match([]byte(c.s)); got != c.want {
			t.Errorf("ScanLike(%q).Match(%q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestLikePrefix(t *testing.T) {
	cases := []struct {
		pattern, prefix string
	}{
		{"abc%", "abc"},
		{"abc_x", "abc"},
		{"%abc", ""},
		{"a\\%b%", "a%b"},
		{"plain", "plain"},
	}
	for _, c := range cases {
		got, ok := likePrefix(c.pattern)
		if !ok || got != c.prefix {
			t.Errorf("likePrefix(%q) = %q,%v, want %q", c.pattern, got, ok, c.prefix)
		}
	}
}

func TestAndOrConstEval(t *testing.T) {
	tab := testTable(t)
	a := NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Eq, value.Int(10)))
	wantRows(t, a, tab, false, true, false, false)
	o := NewOr(NewComparison("x", Lt, value.Int(10)), NewComparison("y", Eq, value.Int(20)))
	wantRows(t, o, tab, true, false, true, false)
	wantRows(t, True(), tab, true, true, true, true)
	wantRows(t, False(), tab, false, false, false, false)

	// Constructors flatten and simplify.
	if _, ok := NewAnd(a, a).(*And); !ok {
		t.Error("NewAnd should produce *And")
	}
	if NewAnd().String() != "TRUE" || NewOr().String() != "FALSE" {
		t.Error("empty And/Or should be constants")
	}
	single := NewComparison("x", Eq, value.Int(1))
	if NewAnd(single) != Predicate(single) {
		t.Error("single-child And should collapse")
	}
	flat := NewAnd(NewAnd(single, single), single).(*And)
	if len(flat.Children) != 3 {
		t.Errorf("nested And not flattened: %d children", len(flat.Children))
	}
}

func TestNegationIsComplement(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		NewComparison("x", Lt, value.Int(15)),
		NewComparison("x", Ge, value.Int(15)),
		NewComparison("x", Eq, value.Int(15)),
		NewIn("x", value.Int(5), value.Int(25)),
		NewLike("s", "ap%"),
		&ColumnComparison{Left: "x", Op: Lt, Right: "y"},
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Eq, value.Int(10))),
		NewOr(NewComparison("x", Lt, value.Int(10)), NewComparison("y", Eq, value.Int(20))),
		True(),
		False(),
	}
	for _, p := range preds {
		n := p.Negate()
		for r := 0; r < tab.NumRows(); r++ {
			pv, nv := evalRow(p, tab, r), evalRow(n, tab, r)
			// Rows with nulls in referenced columns fail both sides
			// (SQL three-valued logic); otherwise exactly one holds.
			if pv && nv {
				t.Errorf("%s and its negation both true at row %d", p, r)
			}
			if !pv && !nv && !rowHasNullIn(tab, r, p) {
				t.Errorf("%s and its negation both false at non-null row %d", p, r)
			}
		}
	}
}

func rowHasNullIn(tab *relation.Table, row int, p Predicate) bool {
	hasNull := false
	p.VisitColumns(func(col string) {
		if ci, ok := tab.Schema().ColumnIndex(col); ok && tab.IsNullAt(row, ci) {
			hasNull = true
		}
	})
	return hasNull
}

func TestColumnsAndEqual(t *testing.T) {
	p := NewAnd(
		NewComparison("x", Lt, value.Int(1)),
		NewOr(NewIn("y", value.Int(2)), &ColumnComparison{Left: "x", Op: Lt, Right: "z"}),
	)
	cols := Columns(p)
	want := []string{"x", "y", "z"}
	if len(cols) != 3 {
		t.Fatalf("Columns = %v", cols)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("Columns = %v, want %v", cols, want)
		}
	}
	if !Equal(p, p) {
		t.Error("Equal(p, p) = false")
	}
	if Equal(NewComparison("x", Lt, value.Int(1)), NewComparison("x", Lt, value.Int(2))) {
		t.Error("distinct predicates compare equal")
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]Predicate{
		"x < 10":              NewComparison("x", Lt, value.Int(10)),
		"x >= 10":             NewComparison("x", Ge, value.Int(10)),
		"x IN (1, 2)":         NewIn("x", value.Int(1), value.Int(2)),
		"x NOT IN (1)":        NewNotIn("x", value.Int(1)),
		`s LIKE "a%"`:         NewLike("s", "a%"),
		`s NOT LIKE "a%"`:     NewNotLike("s", "a%"),
		"x < y":               &ColumnComparison{Left: "x", Op: Lt, Right: "y"},
		"(x < 1) AND (y > 2)": NewAnd(NewComparison("x", Lt, value.Int(1)), NewComparison("y", Gt, value.Int(2))),
		"(x < 1) OR (y > 2)":  NewOr(NewComparison("x", Lt, value.Int(1)), NewComparison("y", Gt, value.Int(2))),
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op should stringify")
	}
	if TriFalse.String() != "false" || TriTrue.String() != "true" || TriMaybe.String() != "maybe" {
		t.Error("Tri.String wrong")
	}
}

// TestCompileEdgeCases covers the shapes normalize rewrites: each still
// answers as the oracle does.
func TestCompileEdgeCases(t *testing.T) {
	tab := testTable(t)
	// Missing column: matches nothing rather than panicking.
	wantRows(t, NewComparison("nope", Eq, value.Int(1)), tab, false, false, false, false)
	wantRows(t, NewIn("nope", value.Int(1)), tab, false, false, false, false)
	wantRows(t, NewNotIn("nope", value.Int(1)), tab, false, false, false, false)
	// An int column against a float literal compares exactly.
	wantRows(t, NewComparison("x", Lt, value.Float(10.5)), tab, true, false, false, false)
	wantRows(t, NewComparison("x", Ne, value.Float(15.5)), tab, true, true, true, false)
	wantRows(t, NewIn("x", value.Float(15), value.Float(5.5)), tab, false, true, false, false)
	// Float IN is an OR of "=".
	wantRows(t, NewIn("f", value.Float(1.5)), tab, true, false, false, false)
	wantRows(t, NewNotIn("f", value.Float(1.5), value.Int(2)), tab, false, true, false, true)
	// String IN with a NOT and a null literal, or a literal of another kind.
	wantRows(t, NewNotIn("s", value.String("apple"), value.Null), tab, false, false, false, false)
	wantRows(t, NewNotIn("s", value.String("apple"), value.Int(3)), tab, false, false, false, false)
	wantRows(t, NewIn("s", value.String("apple"), value.Int(3)), tab, true, false, false, false)
}
