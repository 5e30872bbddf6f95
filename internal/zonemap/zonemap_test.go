package zonemap

import (
	"math"
	"math/rand"
	"testing"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

func buildTable(t *testing.T) *relation.Table {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "x", Type: value.KindInt},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "n", Type: value.KindFloat},
	))
	tab.MustAppendRow(value.Int(10), value.String("m"), value.Null)
	tab.MustAppendRow(value.Int(20), value.String("a"), value.Null)
	tab.MustAppendRow(value.Int(15), value.String("z"), value.Null)
	tab.MustAppendRow(value.Int(99), value.String("q"), value.Float(1))
	return tab
}

func TestBuildRanges(t *testing.T) {
	tab := buildTable(t)
	zm := Build(tab, []int32{0, 1, 2})
	if zm.NumRows() != 3 {
		t.Errorf("NumRows = %d", zm.NumRows())
	}
	x := zm.Column("x")
	if x.Min.Int() != 10 || x.Max.Int() != 20 {
		t.Errorf("x zone = %v", x)
	}
	s := zm.Column("s")
	if s.Min.Str() != "a" || s.Max.Str() != "z" {
		t.Errorf("s zone = %v", s)
	}
	if !zm.Column("n").Empty {
		t.Error("all-null column should have empty interval")
	}
	if len(zm.Ranges()) != 3 {
		t.Errorf("Ranges has %d columns", len(zm.Ranges()))
	}
}

// decide evaluates p against zm as the engine's zone pruning does.
func decide(zm *ZoneMap, p predicate.Predicate) predicate.Tri {
	return predicate.CompileRanges(p)(zm.Ranges())
}

func TestSkipping(t *testing.T) {
	tab := buildTable(t)
	zm := Build(tab, []int32{0, 1, 2}) // x in [10,20]
	if decide(zm, predicate.NewComparison("x", predicate.Gt, value.Int(50))) != predicate.TriFalse {
		t.Error("should skip x > 50")
	}
	if decide(zm, predicate.NewComparison("x", predicate.Gt, value.Int(15))) == predicate.TriFalse {
		t.Error("should not skip x > 15")
	}
	if decide(zm, predicate.NewComparison("x", predicate.Le, value.Int(20))) != predicate.TriTrue {
		t.Error("x <= 20 covers the whole block")
	}
	if decide(zm, predicate.NewComparison("x", predicate.Le, value.Int(15))) == predicate.TriTrue {
		t.Error("x <= 15 does not cover the whole block")
	}
	// Filters on the all-null column always skip.
	if decide(zm, predicate.NewComparison("n", predicate.Gt, value.Float(0))) != predicate.TriFalse {
		t.Error("all-null column filter should skip the block")
	}
	// A different slice of rows has a different zone.
	zm2 := Build(tab, []int32{3})
	if decide(zm2, predicate.NewComparison("n", predicate.Gt, value.Float(0))) == predicate.TriFalse {
		t.Error("non-null block should not skip")
	}
	if !zm2.Column("x").IsPoint() {
		t.Error("single-row zone should be a point")
	}
}

func TestEmptyBlock(t *testing.T) {
	tab := buildTable(t)
	zm := Build(tab, nil)
	if zm.NumRows() != 0 {
		t.Error("empty block rows")
	}
	if decide(zm, predicate.NewComparison("x", predicate.Eq, value.Int(10))) != predicate.TriFalse {
		t.Error("empty block should always skip")
	}
}

// TestNaNNeverBounds: a NaN, like a NULL, matches no filter, so it never
// enters a bound — not even as the block's first value — and a column of
// only NaN and NULL gets the Empty interval.
func TestNaNNeverBounds(t *testing.T) {
	nan := value.Float(math.NaN())
	tab := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "g", Type: value.KindFloat},
	))
	tab.MustAppendRow(nan, nan)
	tab.MustAppendRow(value.Float(2), value.Null)
	tab.MustAppendRow(nan, nan)
	tab.MustAppendRow(value.Float(-1), value.Null)
	tab.MustAppendRow(value.Float(math.Inf(1)), nan)
	zm := Build(tab, []int32{0, 1, 2, 3, 4})
	f := zm.Column("f")
	if f.Empty || f.Min.Float() != -1 || !math.IsInf(f.Max.Float(), 1) || !f.MinInc || !f.MaxInc {
		t.Errorf("f zone = %v, want [-1, +Inf]", f)
	}
	if g := zm.Column("g"); !g.Empty {
		t.Errorf("NaN-and-NULL column zone = %v, want empty", g)
	}
	if f := Build(tab, []int32{0, 2}).Column("f"); !f.Empty {
		t.Errorf("all-NaN zone = %v, want empty", f)
	}
	if decide(zm, predicate.NewComparison("g", predicate.Ne, value.Float(1))) != predicate.TriFalse {
		t.Error("<> over a NaN-and-NULL column should skip the block")
	}
}

// buildBoxed is the cell-at-a-time Build the typed loops replaced, kept as
// their reference: every interval must come out bit-equal.
func buildBoxed(t *relation.Table, rows []int32) *ZoneMap {
	schema := t.Schema()
	zm := &ZoneMap{ranges: make(predicate.Ranges, schema.NumColumns()), rows: len(rows)}
	for c := 0; c < schema.NumColumns(); c++ {
		var min, max value.Value
		seen := false
		for _, r := range rows {
			v := t.Value(int(r), c)
			if v.IsNull() || v.Kind() == value.KindFloat && math.IsNaN(v.Float()) {
				continue
			}
			if !seen {
				min, max, seen = v, v, true
				continue
			}
			min, max = value.Min(min, v), value.Max(max, v)
		}
		name := schema.Column(c).Name
		if !seen {
			zm.ranges[name] = predicate.Interval{Empty: true}
			continue
		}
		zm.ranges[name] = predicate.NewInterval(min, max, true, true)
	}
	return zm
}

// sameBits compares two zone maps with floats by bit pattern, so NaN and
// signed-zero bounds count as differences DeepEqual would blur or invent.
func sameBits(a, b *ZoneMap) bool {
	if a.rows != b.rows || len(a.ranges) != len(b.ranges) {
		return false
	}
	same := func(x, y value.Value) bool {
		if x.Kind() == value.KindFloat && y.Kind() == value.KindFloat {
			return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
		}
		return x == y
	}
	for name, ia := range a.ranges {
		ib, ok := b.ranges[name]
		if !ok || ia.Empty != ib.Empty || ia.MinInc != ib.MinInc || ia.MaxInc != ib.MaxInc ||
			!same(ia.Min, ib.Min) || !same(ia.Max, ib.Max) {
			return false
		}
	}
	return true
}

func TestBuildMatchesBoxedReference(t *testing.T) {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := relation.NewTable(relation.MustSchema("t",
			relation.Column{Name: "i", Type: value.KindInt},
			relation.Column{Name: "f", Type: value.KindFloat},
			relation.Column{Name: "s", Type: value.KindString},
			relation.Column{Name: "dense", Type: value.KindInt},
			relation.Column{Name: "allnull", Type: value.KindString},
		))
		n := 200 + rng.Intn(200)
		for r := 0; r < n; r++ {
			i := value.Value(value.Int(rng.Int63n(1000) - 500))
			f := value.Value(value.Float(rng.NormFloat64()))
			s := value.Value(value.String(string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))))
			if rng.Intn(10) == 0 {
				f = value.Float(specials[rng.Intn(len(specials))])
			}
			if rng.Intn(7) == 0 {
				i = value.Null
			}
			if rng.Intn(7) == 0 {
				f = value.Null
			}
			if rng.Intn(7) == 0 {
				s = value.Null
			}
			tab.MustAppendRow(i, f, s, value.Int(rng.Int63()), value.Null)
		}
		perm := rng.Perm(n)
		all := make([]int32, n)
		for k, r := range perm {
			all[k] = int32(r)
		}
		blocks := [][]int32{nil, all[:1], all[1:9], all[9 : n/2], all[n/2:], all}
		for bi, rows := range blocks {
			if got, want := Build(tab, rows), buildBoxed(tab, rows); !sameBits(got, want) {
				t.Errorf("seed %d block %d (%d rows): typed %+v, boxed %+v", seed, bi, len(rows), got.ranges, want.ranges)
			}
		}
	}
}
