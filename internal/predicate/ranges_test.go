package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mto/internal/relation"
	"mto/internal/value"
)

func iv(min, max int64) Interval {
	return NewInterval(value.Int(min), value.Int(max), true, true)
}

func TestIntervalBasics(t *testing.T) {
	u := Unbounded()
	if u.Empty || u.IsPoint() {
		t.Error("unbounded misclassified")
	}
	if !u.Contains(value.Int(0)) || u.Contains(value.Null) {
		t.Error("unbounded containment wrong")
	}
	p := Point(value.Int(5))
	if !p.IsPoint() || !p.Contains(value.Int(5)) || p.Contains(value.Int(6)) {
		t.Error("point interval wrong")
	}
	half := NewInterval(value.Int(10), value.Null, false, true) // (10, +inf)
	if half.Contains(value.Int(10)) || !half.Contains(value.Int(11)) {
		t.Error("exclusive bound wrong")
	}
	if half.Contains(value.String("x")) {
		t.Error("incomparable containment should be false")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a, b := iv(0, 10), iv(5, 20)
	got := a.Intersect(b)
	if got.Empty || got.Min.Int() != 5 || got.Max.Int() != 10 {
		t.Errorf("Intersect = %v", got)
	}
	if !iv(0, 4).Intersect(iv(5, 9)).Empty {
		t.Error("disjoint intervals should be empty")
	}
	// Touching with exclusivity: [0,5) ∩ [5,9] is empty.
	lo := NewInterval(value.Int(0), value.Int(5), true, false)
	if !lo.Intersect(iv(5, 9)).Empty {
		t.Error("exclusive touch should be empty")
	}
	// Touching inclusive: [0,5] ∩ [5,9] = [5,5].
	touch := iv(0, 5).Intersect(iv(5, 9))
	if touch.Empty || !touch.IsPoint() {
		t.Errorf("inclusive touch = %v", touch)
	}
	if got := (Interval{Empty: true}).Intersect(iv(0, 1)); !got.Empty {
		t.Error("empty absorbs")
	}
	// Unbounded sides.
	ge := NewInterval(value.Int(3), value.Null, true, true)
	le := NewInterval(value.Null, value.Int(7), true, true)
	mid := ge.Intersect(le)
	if mid.Min.Int() != 3 || mid.Max.Int() != 7 {
		t.Errorf("half-bounded intersect = %v", mid)
	}
}

func TestIntervalString(t *testing.T) {
	if got := iv(1, 2).String(); got != "[1, 2]" {
		t.Errorf("String = %q", got)
	}
	if got := (Interval{Empty: true}).String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
	if got := Unbounded().String(); got != "(-inf, +inf)" {
		t.Errorf("unbounded String = %q", got)
	}
}

func TestRangesOps(t *testing.T) {
	r := Ranges{"x": iv(0, 10)}
	if got := r.Get("x"); got.Min.Int() != 0 {
		t.Error("Get wrong")
	}
	if got := r.Get("other"); got.Min.IsNull() != true {
		t.Error("missing column should be unbounded")
	}
	c := r.Clone()
	c["x"] = iv(5, 5)
	if r["x"].Min.Int() != 0 {
		t.Error("Clone aliases storage")
	}
	ref := r.Refine(Ranges{"x": iv(5, 20), "y": iv(1, 2)})
	if ref["x"].Min.Int() != 5 || ref["x"].Max.Int() != 10 || ref["y"].Min.Int() != 1 {
		t.Errorf("Refine = %v", ref)
	}
	if r.HasEmpty() {
		t.Error("HasEmpty on non-empty")
	}
	if !(Ranges{"x": Interval{Empty: true}}).HasEmpty() {
		t.Error("HasEmpty missed empty")
	}
	_ = ref.String()
	var nilRanges Ranges
	if nilRanges.Get("x").Empty {
		t.Error("nil Ranges should be unconstrained")
	}
}

func TestEvalRangesComparison(t *testing.T) {
	zone := Ranges{"x": iv(10, 20)}
	cases := []struct {
		p    Predicate
		want Tri
	}{
		{NewComparison("x", Lt, value.Int(5)), TriFalse},
		{NewComparison("x", Lt, value.Int(25)), TriTrue},
		{NewComparison("x", Lt, value.Int(15)), TriMaybe},
		{NewComparison("x", Le, value.Int(20)), TriTrue},
		{NewComparison("x", Le, value.Int(9)), TriFalse},
		{NewComparison("x", Gt, value.Int(20)), TriFalse},
		{NewComparison("x", Gt, value.Int(9)), TriTrue},
		{NewComparison("x", Ge, value.Int(10)), TriTrue},
		{NewComparison("x", Ge, value.Int(21)), TriFalse},
		{NewComparison("x", Eq, value.Int(15)), TriMaybe},
		{NewComparison("x", Eq, value.Int(25)), TriFalse},
		{NewComparison("x", Ne, value.Int(25)), TriTrue},
		{NewComparison("x", Ne, value.Int(15)), TriMaybe},
		{NewComparison("x", Eq, value.Null), TriFalse},
		{NewComparison("unconstrained", Lt, value.Int(0)), TriMaybe},
	}
	for _, c := range cases {
		if got := CompileRanges(c.p)(zone); got != c.want {
			t.Errorf("%s over %v = %s, want %s", c.p, zone, got, c.want)
		}
	}
	pointZone := Ranges{"x": Point(value.Int(7))}
	if got := CompileRanges(NewComparison("x", Eq, value.Int(7)))(pointZone); got != TriTrue {
		t.Errorf("Eq over point = %s", got)
	}
	if got := CompileRanges(NewComparison("x", Ne, value.Int(7)))(pointZone); got != TriFalse {
		t.Errorf("Ne over point = %s", got)
	}
	empty := Ranges{"x": Interval{Empty: true}}
	if got := CompileRanges(NewComparison("x", Ne, value.Int(0)))(empty); got != TriFalse {
		t.Errorf("empty column should fail every comparison, got %s", got)
	}
}

func TestEvalRangesColumnComparison(t *testing.T) {
	p := &ColumnComparison{Left: "a", Op: Lt, Right: "b"}
	if got := CompileRanges(p)(Ranges{"a": iv(0, 5), "b": iv(10, 20)}); got != TriTrue {
		t.Errorf("disjoint ordered = %s", got)
	}
	if got := CompileRanges(p)(Ranges{"a": iv(10, 20), "b": iv(0, 5)}); got != TriFalse {
		t.Errorf("reverse ordered = %s", got)
	}
	if got := CompileRanges(p)(Ranges{"a": iv(0, 15), "b": iv(10, 20)}); got != TriMaybe {
		t.Errorf("overlapping = %s", got)
	}
	eq := &ColumnComparison{Left: "a", Op: Eq, Right: "b"}
	if got := CompileRanges(eq)(Ranges{"a": Point(value.Int(3)), "b": Point(value.Int(3))}); got != TriTrue {
		t.Errorf("equal points = %s", got)
	}
	if got := CompileRanges(eq)(Ranges{"a": iv(0, 5), "b": iv(10, 20)}); got != TriFalse {
		t.Errorf("disjoint eq = %s", got)
	}
	ne := &ColumnComparison{Left: "a", Op: Ne, Right: "b"}
	if got := CompileRanges(ne)(Ranges{"a": Point(value.Int(3)), "b": Point(value.Int(3))}); got != TriFalse {
		t.Errorf("equal points ne = %s", got)
	}
	if got := CompileRanges(ne)(Ranges{"a": iv(0, 5), "b": iv(10, 20)}); got != TriTrue {
		t.Errorf("disjoint ne = %s", got)
	}
	ge := &ColumnComparison{Left: "a", Op: Ge, Right: "b"}
	if got := CompileRanges(ge)(Ranges{"a": iv(10, 20), "b": iv(0, 5)}); got != TriTrue {
		t.Errorf("ge ordered = %s", got)
	}
	le := &ColumnComparison{Left: "a", Op: Le, Right: "b"}
	if got := CompileRanges(le)(Ranges{"a": iv(0, 5), "b": iv(5, 20)}); got != TriTrue {
		t.Errorf("le touching = %s", got)
	}
	if got := CompileRanges(le)(Ranges{"a": Interval{Empty: true}}); got != TriFalse {
		t.Errorf("empty operand = %s", got)
	}
	gt := &ColumnComparison{Left: "a", Op: Gt, Right: "b"}
	if got := CompileRanges(gt)(Ranges{"a": iv(0, 5), "b": iv(5, 20)}); got != TriFalse {
		t.Errorf("gt impossible = %s", got)
	}
}

func TestEvalRangesInList(t *testing.T) {
	zone := Ranges{"x": iv(10, 20)}
	if got := CompileRanges(NewIn("x", value.Int(1), value.Int(2)))(zone); got != TriFalse {
		t.Errorf("IN all-outside = %s", got)
	}
	if got := CompileRanges(NewIn("x", value.Int(1), value.Int(15)))(zone); got != TriMaybe {
		t.Errorf("IN partial = %s", got)
	}
	if got := CompileRanges(NewNotIn("x", value.Int(1)))(zone); got != TriTrue {
		t.Errorf("NOT IN all-outside = %s", got)
	}
	if got := CompileRanges(NewNotIn("x", value.Int(15)))(zone); got != TriMaybe {
		t.Errorf("NOT IN partial = %s", got)
	}
	point := Ranges{"x": Point(value.Int(15))}
	if got := CompileRanges(NewIn("x", value.Int(15)))(point); got != TriTrue {
		t.Errorf("IN covering point = %s", got)
	}
	if got := CompileRanges(NewNotIn("x", value.Int(15)))(point); got != TriFalse {
		t.Errorf("NOT IN covering point = %s", got)
	}
	if got := CompileRanges(NewIn("x"))(zone); got != TriFalse {
		t.Errorf("empty IN = %s", got)
	}
	if got := CompileRanges(NewIn("x", value.Int(1)))(Ranges{"x": Interval{Empty: true}}); got != TriFalse {
		t.Errorf("IN on empty column = %s", got)
	}
}

func TestEvalRangesLike(t *testing.T) {
	zone := Ranges{"s": NewInterval(value.String("m"), value.String("p"), true, true)}
	if got := CompileRanges(NewLike("s", "a%"))(zone); got != TriFalse {
		t.Errorf("prefix outside zone = %s", got)
	}
	if got := CompileRanges(NewLike("s", "n%"))(zone); got != TriMaybe {
		t.Errorf("prefix inside zone = %s", got)
	}
	if got := CompileRanges(NewLike("s", "%x%"))(zone); got != TriMaybe {
		t.Errorf("no-prefix pattern = %s", got)
	}
	if got := CompileRanges(NewNotLike("s", "a%"))(zone); got != TriMaybe {
		t.Errorf("NOT LIKE = %s", got)
	}
	if got := CompileRanges(NewLike("s", "a%"))(Ranges{"s": Interval{Empty: true}}); got != TriFalse {
		t.Errorf("LIKE on empty column = %s", got)
	}
}

func TestEvalRangesAndOr(t *testing.T) {
	zone := Ranges{"x": iv(10, 20), "y": iv(0, 5)}
	and := NewAnd(
		NewComparison("x", Gt, value.Int(5)),  // true
		NewComparison("y", Lt, value.Int(10)), // true
	)
	if got := CompileRanges(and)(zone); got != TriTrue {
		t.Errorf("And true = %s", got)
	}
	andF := NewAnd(NewComparison("x", Gt, value.Int(5)), NewComparison("y", Gt, value.Int(10)))
	if got := CompileRanges(andF)(zone); got != TriFalse {
		t.Errorf("And false = %s", got)
	}
	andM := NewAnd(NewComparison("x", Gt, value.Int(15)), NewComparison("y", Lt, value.Int(10)))
	if got := CompileRanges(andM)(zone); got != TriMaybe {
		t.Errorf("And maybe = %s", got)
	}
	orT := NewOr(NewComparison("x", Gt, value.Int(100)), NewComparison("y", Lt, value.Int(10)))
	if got := CompileRanges(orT)(zone); got != TriTrue {
		t.Errorf("Or true = %s", got)
	}
	orF := NewOr(NewComparison("x", Gt, value.Int(100)), NewComparison("y", Gt, value.Int(10)))
	if got := CompileRanges(orF)(zone); got != TriFalse {
		t.Errorf("Or false = %s", got)
	}
	orM := NewOr(NewComparison("x", Gt, value.Int(15)), NewComparison("y", Gt, value.Int(10)))
	if got := CompileRanges(orM)(zone); got != TriMaybe {
		t.Errorf("Or maybe = %s", got)
	}
	// The disjunctive zone-map win: X<12 OR X>18 over [13,17] skips.
	disj := NewOr(NewComparison("x", Lt, value.Int(12)), NewComparison("x", Gt, value.Int(18)))
	if got := CompileRanges(disj)(Ranges{"x": iv(13, 17)}); got != TriFalse {
		t.Errorf("disjunctive skip = %s", got)
	}
	if got := CompileRanges(True())(zone); got != TriTrue {
		t.Errorf("const true = %s", got)
	}
	if got := CompileRanges(False())(zone); got != TriFalse {
		t.Errorf("const false = %s", got)
	}
}

func TestRangesOf(t *testing.T) {
	p := NewAnd(
		NewComparison("x", Ge, value.Int(10)),
		NewComparison("x", Lt, value.Int(20)),
		NewIn("y", value.Int(3), value.Int(7)),
		NewLike("s", "abc%"),
		NewComparison("z", Ne, value.Int(5)),             // no constraint
		&ColumnComparison{Left: "x", Op: Lt, Right: "y"}, // no constraint
	)
	r := RangesOf(p)
	x := r["x"]
	if x.Min.Int() != 10 || !x.MinInc || x.Max.Int() != 20 || x.MaxInc {
		t.Errorf("x range = %v", x)
	}
	y := r["y"]
	if y.Min.Int() != 3 || y.Max.Int() != 7 {
		t.Errorf("y hull = %v", y)
	}
	s := r["s"]
	if s.Min.Str() != "abc" || s.Max.Str() != "abd" || s.MaxInc {
		t.Errorf("s prefix range = %v", s)
	}
	if _, constrained := r["z"]; constrained {
		t.Error("Ne should not constrain")
	}

	// OR takes the hull only when all branches constrain the column.
	or := NewOr(
		NewComparison("x", Eq, value.Int(1)),
		NewAnd(NewComparison("x", Ge, value.Int(5)), NewComparison("x", Le, value.Int(9))),
	)
	ro := RangesOf(or)
	if ro["x"].Min.Int() != 1 || ro["x"].Max.Int() != 9 {
		t.Errorf("or hull = %v", ro["x"])
	}
	orMixed := NewOr(NewComparison("x", Eq, value.Int(1)), NewComparison("y", Eq, value.Int(2)))
	if len(RangesOf(orMixed)) != 0 {
		t.Error("mixed-column OR should not constrain")
	}

	if !RangesOf(False()).HasEmpty() {
		t.Error("FALSE should produce an empty region")
	}
	if len(RangesOf(True())) != 0 {
		t.Error("TRUE should not constrain")
	}
	// Negated IN/LIKE contribute nothing.
	if len(RangesOf(NewNotIn("x", value.Int(1)))) != 0 {
		t.Error("NOT IN should not constrain")
	}
	if len(RangesOf(NewNotLike("s", "a%"))) != 0 {
		t.Error("NOT LIKE should not constrain")
	}
	// IN with incomparable or null values contributes nothing.
	if len(RangesOf(NewIn("x", value.Int(1), value.String("a")))) != 0 {
		t.Error("mixed IN should not constrain")
	}
	if len(RangesOf(NewIn("x", value.Null))) != 0 {
		t.Error("null IN should not constrain")
	}
}

func TestPrefixIntervalAllFF(t *testing.T) {
	ivl := prefixInterval("\xff\xff")
	if !ivl.Max.IsNull() {
		t.Errorf("all-0xff prefix should be unbounded above: %v", ivl)
	}
	if !ivl.Contains(value.String("\xff\xff\x01")) {
		t.Error("containment after all-0xff prefix")
	}
}

// Property: CompileRanges is sound — if a row satisfies p, the zone map of any
// block containing that row cannot evaluate to TriFalse; if it reports
// TriTrue, every row in the block satisfies p.
func TestEvalRangesSoundness(t *testing.T) {
	schema := relation.MustSchema("t",
		relation.Column{Name: "x", Type: value.KindInt},
		relation.Column{Name: "y", Type: value.KindInt},
	)
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, a, b int16) bool {
		r := rand.New(rand.NewSource(seed))
		tab := relation.NewTable(schema)
		minX, maxX := int64(1<<40), int64(-1<<40)
		minY, maxY := int64(1<<40), int64(-1<<40)
		for i := 0; i < 50; i++ {
			x, y := int64(r.Intn(200)-100), int64(r.Intn(200)-100)
			tab.MustAppendRow(value.Int(x), value.Int(y))
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		zone := Ranges{"x": iv(minX, maxX), "y": iv(minY, maxY)}
		preds := []Predicate{
			NewComparison("x", Lt, value.Int(int64(a))),
			NewComparison("y", Ge, value.Int(int64(b))),
			NewAnd(NewComparison("x", Gt, value.Int(int64(a))), NewComparison("y", Lt, value.Int(int64(b)))),
			NewOr(NewComparison("x", Eq, value.Int(int64(a))), NewComparison("y", Eq, value.Int(int64(b)))),
			NewIn("x", value.Int(int64(a)), value.Int(int64(b))),
			&ColumnComparison{Left: "x", Op: Lt, Right: "y"},
		}
		for _, p := range preds {
			tri := CompileRanges(p)(zone)
			anyTrue, allTrue := false, true
			for row := 0; row < tab.NumRows(); row++ {
				if evalRow(p, tab, row) {
					anyTrue = true
				} else {
					allTrue = false
				}
			}
			if tri == TriFalse && anyTrue {
				return false
			}
			if tri == TriTrue && !allTrue {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
