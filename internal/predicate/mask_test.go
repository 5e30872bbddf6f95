package predicate

import (
	"math/rand"
	"testing"

	"mto/internal/relation"
	"mto/internal/value"
)

// maskRows runs CompileMask and decodes the bitmask into per-row booleans.
func maskRows(t *testing.T, p Predicate, tab *relation.Table) ([]bool, bool) {
	t.Helper()
	n := tab.NumRows()
	mask := make([]uint64, (n+63)/64)
	if !CompileMask(p, tab, mask) {
		return nil, false
	}
	out := make([]bool, n)
	for r := 0; r < n; r++ {
		out[r] = mask[r>>6]&(1<<(uint(r)&63)) != 0
	}
	return out, true
}

// TestCompileMaskMatchesCompile pins the bulk path to the per-row compiled
// path on every supported predicate shape, including null rows.
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
		got, ok := maskRows(t, p, tab)
		if !ok {
			t.Errorf("%s: CompileMask refused a supported shape", p)
			continue
		}
		fn := Compile(p, tab)
		for r := 0; r < tab.NumRows(); r++ {
			if want := fn(r); got[r] != want {
				t.Errorf("%s: row %d mask=%v compile=%v", p, r, got[r], want)
			}
			// EvalRow panics on a missing column; Compile's "matches
			// nothing" is the contract there.
			if hasColumns(p, tab) {
				if want := p.EvalRow(tab, r); got[r] != want {
					t.Errorf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
				}
			}
		}
	}
}

func hasColumns(p Predicate, tab *relation.Table) bool {
	for _, c := range Columns(p) {
		if _, ok := tab.Schema().ColumnIndex(c); !ok {
			return false
		}
	}
	return true
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
		got, ok := maskRows(t, p, tab)
		if !ok {
			t.Errorf("%s: CompileMask refused a supported shape", p)
			continue
		}
		for r := 0; r < tab.NumRows(); r++ {
			if want := p.EvalRow(tab, r); got[r] != want {
				t.Errorf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
			}
		}
	}
}

// TestCompileMaskFallback verifies unsupported shapes refuse cleanly and
// leave the mask untouched — the refusal is decided from the shape alone,
// before a supported sibling is evaluated — and that FillMask still answers
// them through the per-row evaluator.
func TestCompileMaskFallback(t *testing.T) {
	tab := testTable(t)
	floatIn := NewIn("f", value.Float(1.5))
	intVsFloat := NewComparison("x", Lt, value.Float(15.5))
	mixedPair := &ColumnComparison{Left: "f", Op: Lt, Right: "x"}
	unsupported := []Predicate{
		floatIn,
		intVsFloat,
		mixedPair,
		&ColumnComparison{Left: "s", Op: Eq, Right: "x"},
		NewComparison("x", Eq, value.Null),
		NewAnd(NewComparison("x", Gt, value.Int(5)), floatIn),
		NewOr(NewComparison("x", Gt, value.Int(5)), intVsFloat),
		NewOr(NewIn("s", value.String("apple")), NewAnd(NewLike("s", "b%"), mixedPair)),
	}
	for _, p := range unsupported {
		mask := make([]uint64, 1)
		if CompileMask(p, tab, mask) {
			t.Errorf("%s: expected fallback", p)
		}
		if mask[0] != 0 {
			t.Errorf("%s: fallback left mask dirty: %x", p, mask[0])
		}
		FillMask(p, tab, mask)
		for r := 0; r < tab.NumRows(); r++ {
			if got, want := mask[0]&(1<<uint(r)) != 0, p.EvalRow(tab, r); got != want {
				t.Errorf("%s: row %d FillMask=%v EvalRow=%v", p, r, got, want)
			}
		}
	}
}

// TestCompileMaskLargeRandom cross-checks the branchless word loops against
// Compile and EvalRow on a table spanning several mask words with
// interspersed nulls: literal comparisons, and every operator over an int,
// a float and a string column pair with nulls on either side or both.
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
	for i := 0; i < n; i++ {
		tab.MustAppendRow(
			orNull(value.Int(int64(rng.Intn(100)))),
			orNull(value.Int(int64(rng.Intn(100)))),
			orNull(value.Float(float64(rng.Intn(20))*0.5)),
			orNull(value.Float(float64(rng.Intn(20))*0.5)),
			orNull(value.String(string(rune('a'+rng.Intn(6))))),
			orNull(value.String(string(rune('a'+rng.Intn(6))))),
		)
	}
	preds := []Predicate{
		NewComparison("v", Lt, value.Int(50)),
		NewComparison("v", Ge, value.Int(93)),
		NewIn("v", value.Int(1), value.Int(2), value.Int(3)),
	}
	for _, op := range allOps {
		preds = append(preds,
			&ColumnComparison{Left: "v", Op: op, Right: "w"},
			&ColumnComparison{Left: "f", Op: op, Right: "g"},
			&ColumnComparison{Left: "s", Op: op, Right: "u"})
	}
	for _, p := range preds {
		got, ok := maskRows(t, p, tab)
		if !ok {
			t.Fatalf("%s: refused", p)
		}
		fn := Compile(p, tab)
		for r := 0; r < n; r++ {
			if want := fn(r); got[r] != want {
				t.Fatalf("%s: row %d mask=%v compile=%v", p, r, got[r], want)
			}
			if want := p.EvalRow(tab, r); got[r] != want {
				t.Fatalf("%s: row %d mask=%v EvalRow=%v", p, r, got[r], want)
			}
		}
	}
}
