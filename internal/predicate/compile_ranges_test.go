package predicate

import (
	"math"
	"testing"

	"mto/internal/value"
)

// TestCompileRangesMatchesEvalRanges pins the compiled zone evaluator to
// the oracle's node-by-node walk (evalRanges) decision for decision across
// every node type and a grid of regions, ill-typed ones included, and a
// column ("z") the schema lacks: batch
// zone pruning must keep/skip exactly the blocks the scalar per-block walk
// would, and never panic.
func TestCompileRangesMatchesEvalRanges(t *testing.T) {
	ivs := []Interval{
		Unbounded(),
		Point(value.Int(5)),
		NewInterval(value.Int(0), value.Int(10), true, true),
		NewInterval(value.Int(5), value.Int(20), false, true),
		NewInterval(value.Null, value.Int(4), true, false),
		NewInterval(value.Int(11), value.Null, true, true),
		NewInterval(value.String("a"), value.String("m"), true, false),
		NewInterval(value.String("bob"), value.String("bob"), true, true),
		NewInterval(value.Float(2.5), value.Float(math.Inf(1)), true, true),
		Point(value.Float(5)),
		{Empty: true},
	}
	regions := []byName{nil, {}}
	for _, a := range ivs {
		for _, b := range ivs {
			regions = append(regions, byName{"x": a, "y": b})
		}
	}
	s := nameSchema("x", "y")

	preds := []Predicate{
		NewComparison("x", Eq, value.Int(5)),
		NewComparison("x", Ne, value.Int(5)),
		NewComparison("x", Lt, value.Int(5)),
		NewComparison("x", Le, value.Int(5)),
		NewComparison("x", Gt, value.Int(5)),
		NewComparison("x", Ge, value.Int(5)),
		NewComparison("x", Eq, value.Null),
		NewComparison("x", Ne, value.Float(math.NaN())),
		NewComparison("x", Lt, value.Float(5.5)),
		NewComparison("x", Ne, value.String("c")),
		NewComparison("y", Lt, value.String("c")),
		NewComparison("z", Gt, value.Int(1)), // unconstrained column
		NewIn("x", value.Int(2), value.Int(5), value.Int(9)),
		NewNotIn("x", value.Int(2), value.Int(5)),
		NewIn("x"),
		NewNotIn("x"),
		NewIn("x", value.Float(5), value.String("bob")),
		NewNotIn("x", value.Int(2), value.Null),
		NewNotIn("x", value.Int(2), value.String("bob")),
		NewLike("y", "bo%"),
		NewLike("y", "%b%"),
		NewNotLike("y", "bo%"),
		&ColumnComparison{Left: "x", Op: Lt, Right: "y"},
		&ColumnComparison{Left: "x", Op: Eq, Right: "y"},
		&ColumnComparison{Left: "y", Op: Ne, Right: "x"},
		True(),
		False(),
		NewAnd(NewComparison("x", Ge, value.Int(3)), NewComparison("x", Le, value.Int(7))),
		NewOr(NewComparison("x", Lt, value.Int(2)), NewComparison("y", Eq, value.String("bob"))),
		NewAnd(
			NewOr(NewComparison("x", Eq, value.Int(5)), NewLike("y", "a%")),
			NewNotIn("x", value.Int(9)),
		),
	}

	for _, p := range preds {
		compiled := CompileRanges(p, s)
		for ri, r := range regions {
			if got, want := compiled(bind(r, s)), evalRanges(p, r); got != want {
				t.Errorf("%s over region %d (%v): compiled=%v oracle=%v", p, ri, r, got, want)
			}
		}
	}
}
