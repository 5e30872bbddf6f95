package predicate

import (
	"math"
	"math/rand"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

// TestCompileMaskMatchesCompile pins FillMask and FillRows to the scalar
// oracle on every predicate shape, including null rows.
func TestCompileMaskMatchesCompile(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		NewComparison("x", Lt, value.Int(15)),
		NewComparison("x", Le, value.Int(15)),
		NewComparison("x", Eq, value.Int(25)),
		NewComparison("x", Ne, value.Int(25)),
		NewComparison("x", Gt, value.Int(5)),
		NewComparison("x", Ge, value.Int(15)),
		NewComparison("f", Lt, value.Float(2.0)),
		NewComparison("f", Ge, value.Int(1)),
		NewComparison("s", Eq, value.String("banana")),
		NewComparison("s", Lt, value.String("b")),
		NewIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Int(25)),
		NewNotIn("x", value.Int(5), value.Null),
		NewIn("s", value.String("apple"), value.String("apricot")),
		NewNotIn("s", value.String("apple")),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Eq, value.Int(10))),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewComparison("y", Eq, value.Int(0))),
		True(),
		False(),
		NewComparison("missing", Lt, value.Int(1)),
		// LIKE: every specialized matcher shape plus the recursive fallback.
		NewLike("s", "apple"),
		NewLike("s", "ap%"),
		NewLike("s", "%na"),
		NewLike("s", "%an%"),
		NewLike("s", "a_p%"),
		NewNotLike("s", "ap%"),
		NewLike("x", "a%"),
		NewAnd(NewComparison("x", Gt, value.Int(5)), NewLike("s", "a%")),
		NewOr(NewComparison("x", Eq, value.Int(5)), NewLike("s", "%e")),
		// Same-kind column pairs; row 3 has x NULL, row 2 has f NULL.
		&ColumnComparison{Left: "f", Op: Le, Right: "f"},
		&ColumnComparison{Left: "s", Op: Eq, Right: "s"},
		&ColumnComparison{Left: "s", Op: Lt, Right: "s"},
		&ColumnComparison{Left: "x", Op: Lt, Right: "missing"},
		&ColumnComparison{Left: "missing", Op: Ne, Right: "y"},
		NewAnd(NewComparison("x", Gt, value.Int(5)), &ColumnComparison{Left: "x", Op: Lt, Right: "y"}),
		NewOr(NewComparison("y", Eq, value.Int(0)), &ColumnComparison{Left: "x", Op: Lt, Right: "y"}),
	}
	for _, op := range allOps {
		preds = append(preds,
			&ColumnComparison{Left: "x", Op: op, Right: "y"},
			&ColumnComparison{Left: "y", Op: op, Right: "x"})
	}
	for _, p := range preds {
		evalAll(t, p, tab)
	}
}

var allOps = []Op{Eq, Ne, Lt, Le, Gt, Ge}

// TestCompileMaskOrChildIsolation pins the fix for Or children sharing the
// accumulator mask: an And child must not AND its conjuncts against earlier
// disjuncts' bits, and a leaf child's null-clearing must not wipe rows that
// an earlier disjunct already matched.
func TestCompileMaskOrChildIsolation(t *testing.T) {
	tab := testTable(t)
	preds := []Predicate{
		// Row 0 matches x=5; the And child is false there (s="apple"), and the
		// broken path computed (x=5 OR y=10) AND s="banana", dropping row 0.
		NewOr(NewComparison("x", Eq, value.Int(5)),
			NewAnd(NewComparison("y", Eq, value.Int(10)), NewComparison("s", Eq, value.String("banana")))),
		// Row 3 matches y=0 but has s=null; the s-children's clearNulls must
		// not clear the bit the first disjunct set.
		NewOr(NewComparison("y", Eq, value.Int(0)), NewComparison("s", Eq, value.String("apple"))),
		NewOr(NewComparison("y", Eq, value.Int(0)), NewLike("s", "z%")),
		NewOr(NewComparison("y", Eq, value.Int(0)), NewIn("s", value.String("apple"))),
		// Row 2 matches x=25 but has f=null.
		NewOr(NewComparison("x", Eq, value.Int(25)), NewComparison("f", Gt, value.Float(100))),
		// Nested: And under Or under And.
		NewAnd(NewComparison("x", Gt, value.Int(0)),
			NewOr(NewComparison("x", Eq, value.Int(5)),
				NewAnd(NewComparison("y", Eq, value.Int(10)), NewComparison("s", Eq, value.String("banana"))))),
	}
	for _, p := range preds {
		evalAll(t, p, tab)
	}
}

// TestCompileMaskFallback covers the shapes normalize rewrites: a float IN
// list, an int column against a float literal, mixed-kind pairs, NULL
// literals, and AND/OR over them. Each comes out in the shapes the kernels
// run, and FillMask answers as the oracle does.
func TestCompileMaskFallback(t *testing.T) {
	tab := testTable(t)
	floatIn := NewIn("f", value.Float(1.5))
	intVsFloat := NewComparison("x", Lt, value.Float(15.5))
	mixedPair := &ColumnComparison{Left: "f", Op: Lt, Right: "x"}
	refused := []Predicate{
		floatIn,
		NewNotIn("f", value.Float(1.5)),
		intVsFloat,
		mixedPair,
		&ColumnComparison{Left: "s", Op: Eq, Right: "x"},
		NewComparison("x", Eq, value.Null),
		NewIn("x", value.Float(5), value.Float(15.5), value.String("a")),
		NewNotIn("x", value.Float(5), value.Float(15.5)),
		NewAnd(NewComparison("x", Gt, value.Int(5)), floatIn),
		NewOr(NewComparison("x", Gt, value.Int(5)), intVsFloat),
		NewOr(NewIn("s", value.String("apple")), NewAnd(NewLike("s", "b%"), mixedPair)),
	}
	for _, p := range refused {
		if err := kernelShape(normalize(p, tableKinds(tab)), tableKinds(tab)); err != "" {
			t.Errorf("%s: normalized form %s", p, err)
		}
		evalAll(t, p, tab)
	}
}

// kernelShape checks normalize's contract: every leaf is one the kernels
// run. It returns what is wrong, or "".
func kernelShape(p Predicate, kindOf func(string) (value.Kind, bool)) string {
	switch q := p.(type) {
	case *Comparison:
		if k, ok := kindOf(q.Column); !ok || q.Value.Kind() != k || q.Value.IsNaN() {
			return "holds " + q.String()
		}
	case *ColumnComparison:
		lk, lok := kindOf(q.Left)
		rk, rok := kindOf(q.Right)
		if !lok || !rok || !comparableKinds(lk, rk) {
			return "holds " + q.String()
		}
	case *InList:
		k, ok := kindOf(q.Column)
		if !ok || k == value.KindFloat {
			return "holds " + q.String()
		}
		for _, v := range q.Values {
			if v.Kind() != k {
				return "holds " + q.String()
			}
		}
	case *Like:
		if k, ok := kindOf(q.Column); !ok || k != value.KindString {
			return "holds " + q.String()
		}
	case *And:
		for _, c := range q.Children {
			if err := kernelShape(c, kindOf); err != "" {
				return err
			}
		}
	case *Or:
		for _, c := range q.Children {
			if err := kernelShape(c, kindOf); err != "" {
				return err
			}
		}
	}
	return ""
}

// TestCompileMaskLargeRandom cross-checks the branchless word loops
// against the oracle on a table spanning several mask words with
// interspersed nulls and NaNs: literal comparisons, and every operator
// over an int, a float, a string and a mixed int/float column pair with
// nulls or NaNs on either side or both. FillRows runs over a random
// subset of the rows.
func TestCompileMaskLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := relation.NewTable(relation.MustSchema("big",
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "w", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "g", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "u", Type: value.KindString},
	))
	const n = 1000
	orNull := func(v value.Value) value.Value {
		if rng.Intn(10) == 0 {
			return value.Null
		}
		return v
	}
	float := func() value.Value {
		if rng.Intn(12) == 0 {
			return value.Float(math.NaN())
		}
		return orNull(value.Float(float64(rng.Intn(20)) * 0.5))
	}
	for i := 0; i < n; i++ {
		tab.MustAppendRow(
			orNull(value.Int(int64(rng.Intn(100)))),
			orNull(value.Int(int64(rng.Intn(100)))),
			float(),
			float(),
			orNull(value.String(string(rune('a'+rng.Intn(6))))),
			orNull(value.String(string(rune('a'+rng.Intn(6))))),
		)
	}
	preds := []Predicate{
		NewComparison("v", Lt, value.Int(50)),
		NewComparison("v", Ge, value.Int(93)),
		NewIn("v", value.Int(1), value.Int(2), value.Int(3)),
		NewIn("f", value.Float(1.5), value.Int(3)),
		NewNotIn("f", value.Float(1.5), value.Int(3)),
	}
	for _, op := range allOps {
		preds = append(preds,
			NewComparison("f", op, value.Float(4.5)),
			NewComparison("v", op, value.Float(49.5)),
			&ColumnComparison{Left: "v", Op: op, Right: "w"},
			&ColumnComparison{Left: "f", Op: op, Right: "g"},
			&ColumnComparison{Left: "s", Op: op, Right: "u"},
			&ColumnComparison{Left: "v", Op: op, Right: "f"},
			&ColumnComparison{Left: "g", Op: op, Right: "w"})
	}
	var rows []int32
	for r := 0; r < n; r++ {
		if rng.Intn(3) == 0 {
			rows = append(rows, int32(r))
		}
	}
	for _, p := range preds {
		mask := make([]uint64, (n+63)/64)
		FillMask(p, tab, mask)
		for r := 0; r < n; r++ {
			if got, want := bit(mask, r), evalRow(p, tab, r); got != want {
				t.Fatalf("%s: row %d mask=%v oracle=%v", p, r, got, want)
			}
		}
		sub := make([]uint64, (len(rows)+63)/64)
		FillRows(p, tab, rows, sub)
		for k, r := range rows {
			if got, want := bit(sub, k), evalRow(p, tab, int(r)); got != want {
				t.Fatalf("%s: row %d FillRows=%v oracle=%v", p, r, got, want)
			}
		}
	}
}
