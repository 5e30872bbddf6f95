package predicate_test

import (
	"fmt"
	"math"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// shapeTable holds the values the filter rule is about: NULL and NaN in
// every kind they fit, ±Inf, ints around ±2^53 and ±2^63 beside floats of
// the same magnitude, and strings.
func shapeTable() *relation.Table {
	tab := relation.NewTable(relation.MustSchema("sh",
		relation.Column{Name: "i", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "b", Type: value.KindInt},   // ints near ±2^53 and ±2^63
		relation.Column{Name: "h", Type: value.KindFloat}, // floats near ±2^53 and ±2^63
	))
	bigs := []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5, 3, 7, 2.5}
	for r := 0; r < 240; r++ {
		i := value.Value(value.Int(int64(r % 12)))
		f := value.Value(value.Float(floats[r%len(floats)]))
		s := value.Value(value.String(fmt.Sprintf("%c%d", 'a'+r%4, r%7)))
		b := value.Value(value.Int(bigs[r%len(bigs)]))
		h := value.Value(value.Float(float64(bigs[(r+3)%len(bigs)])))
		if r%11 == 0 {
			i = value.Null
		}
		if r%13 == 0 {
			f, h = value.Null, value.Float(math.NaN())
		}
		if r%17 == 0 {
			s, b = value.Null, value.Null
		}
		tab.MustAppendRow(i, f, s, b, h)
	}
	return tab
}

// refusedShapes are the filters normalization rewrites into kernel shapes:
// NULL, NaN, ±Inf and other-kind literals, mixed int/float columns and
// literals, and IN lists over them.
func refusedShapes() map[string]predicate.Predicate {
	cmp := predicate.NewComparison
	nan, inf := value.Float(math.NaN()), value.Float(math.Inf(1))
	p53, p63 := float64(1<<53), float64(1<<63)
	shapes := map[string]predicate.Predicate{
		// The four shapes the engine's per-row route served.
		"int column vs float literal": cmp("i", predicate.Lt, value.Float(5.5)),
		"float IN list":               predicate.NewIn("f", value.Float(1.5), value.Int(7)),
		"NULL literal":                predicate.NewOr(cmp("i", predicate.Eq, value.Null), predicate.NewLike("s", "b%")),
		"mixed-kind column pair":      &predicate.ColumnComparison{Left: "f", Op: predicate.Lt, Right: "i"},
		// Integral floats in an int IN list.
		"i IN (3.0)":           predicate.NewIn("i", value.Float(3)),
		"i NOT IN (3.0)":       predicate.NewNotIn("i", value.Float(3)),
		"i IN (3.0, 4.5, 'x')": predicate.NewIn("i", value.Float(3), value.Float(4.5), value.String("x")),
		"i NOT IN (3, 4.5)":    predicate.NewNotIn("i", value.Int(3), value.Float(4.5)),
		// NaN and ±Inf literals; NaN rows meet every operator below.
		"f NOT IN (1.5, NaN)": predicate.NewNotIn("f", value.Float(1.5), nan),
		"f NOT IN ()":         predicate.NewNotIn("f"),
		"i <> NaN":            cmp("i", predicate.Ne, nan),
		"i < +Inf":            cmp("i", predicate.Lt, inf),
		"i > -Inf":            cmp("i", predicate.Gt, value.Float(math.Inf(-1))),
		"i <> 2.5":            cmp("i", predicate.Ne, value.Float(2.5)),
		"f pair with itself":  &predicate.ColumnComparison{Left: "f", Op: predicate.Eq, Right: "f"},
		"f <> h":              &predicate.ColumnComparison{Left: "f", Op: predicate.Ne, Right: "h"},
		"b >= h":              &predicate.ColumnComparison{Left: "b", Op: predicate.Ge, Right: "h"},
		"h < b":               &predicate.ColumnComparison{Left: "h", Op: predicate.Lt, Right: "b"},
		// Strings against ints, either way round.
		"s = 5 OR i = 3":  predicate.NewOr(cmp("s", predicate.Eq, value.Int(5)), cmp("i", predicate.Eq, value.Int(3))),
		"i <> 'a1'":       cmp("i", predicate.Ne, value.String("a1")),
		"s NOT IN (1)":    predicate.NewNotIn("s", value.Int(1)),
		"s < i":           &predicate.ColumnComparison{Left: "s", Op: predicate.Lt, Right: "i"},
		"i NOT LIKE 'a%'": predicate.NewNotLike("i", "a%"),
	}
	for _, op := range []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Le, predicate.Gt, predicate.Ge} {
		shapes["f "+op.String()+" NaN"] = cmp("f", op, nan)
		shapes["f "+op.String()+" 3 (int)"] = cmp("f", op, value.Int(3))
		shapes["f "+op.String()+" +Inf"] = cmp("f", op, inf)
		for _, x := range []float64{p53, p53 + 2, -p53 - 2, p63, -p63, math.Nextafter(p63, 0)} {
			shapes[fmt.Sprintf("b %s %g", op, x)] = cmp("b", op, value.Float(x))
		}
		for _, x := range []int64{1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
			shapes[fmt.Sprintf("h %s %d", op, x)] = cmp("h", op, value.Int(x))
		}
	}
	return shapes
}

// TestRefusedShapesMatchOracle is the table-driven check of every shape
// normalization rewrites: FillMask, FillRows, CompileScan over RAM and
// file pages all equal the scalar oracle row for row, and CompileRanges
// over each block's zone map is sound — TriFalse only when no row of the
// block matches, TriTrue only when every row with its columns neither
// NULL nor NaN does.
func TestRefusedShapesMatchOracle(t *testing.T) {
	tab := shapeTable()
	n := tab.NumRows()
	// Blocks of 30 rows sorted by i, so zone maps narrow i (and little else).
	var groups [][]int32
	for v := -1; v < 12; v++ {
		var g []int32
		for r := 0; r < n; r++ {
			ci, _ := tab.Schema().ColumnIndex("i")
			if null := tab.IsNullAt(r, ci); null && v == -1 || !null && tab.Ints(ci)[r] == int64(v) {
				g = append(g, int32(r))
			}
		}
		groups = append(groups, g)
	}
	tl, err := block.NewTableLayout(tab, groups, 30)
	if err != nil {
		t.Fatal(err)
	}
	file, err := colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]*colstore.Store{"RAM": colstore.NewMemStore(block.DefaultCostModel()), "file": file}
	for _, s := range stores {
		t.Cleanup(func() { s.Close() })
		if _, err := block.CommitNow(s.PrepareLayout("sh", tl)); err != nil {
			t.Fatal(err)
		}
	}
	var subset []int32 // every third row, descending
	for r := n - 1; r >= 0; r -= 3 {
		subset = append(subset, int32(r))
	}
	bit := func(m []uint64, k int) bool { return m[k>>6]>>(uint(k)&63)&1 == 1 }

	for name, p := range refusedShapes() {
		want := make([]bool, n)
		for r := range want {
			want[r] = predicate.OracleRow(p, tab, r)
		}
		mask := make([]uint64, (n+63)/64)
		predicate.FillMask(p, tab, mask)
		rows := make([]uint64, (len(subset)+63)/64)
		predicate.FillRows(p, tab, subset, rows)
		for r := range want {
			if bit(mask, r) != want[r] {
				t.Errorf("%s: FillMask row %d = %v, oracle %v", name, r, !want[r], want[r])
			}
		}
		for k, r := range subset {
			if bit(rows, k) != want[r] {
				t.Errorf("%s: FillRows row %d = %v, oracle %v", name, r, !want[r], want[r])
			}
		}
		for sname, s := range stores {
			scan := s.CompileScan("sh", []predicate.Predicate{p})
			order, err := scan.RowOrder()
			if err != nil {
				t.Fatalf("%s/%s: %v", sname, name, err)
			}
			got := make([]uint64, order.Words())
			for id := 0; id < s.NumBlocks("sh"); id++ {
				if _, err := scan.ScanBlock(id, [][]uint64{order.Block(got, id)}); err != nil {
					t.Fatalf("%s/%s: %v", sname, name, err)
				}
			}
			for k, r := range order.Rows {
				switch {
				case r < 0 && bit(got, k):
					t.Errorf("%s/%s: CompileScan sets padding position %d", sname, name, k)
				case r >= 0 && bit(got, k) != want[r]:
					t.Errorf("%s/%s: CompileScan row %d = %v, oracle %v", sname, name, r, !want[r], want[r])
				}
			}
		}
		zone := predicate.CompileRanges(p, tab.Schema())
		for id, z := range stores["RAM"].Zones("sh") {
			tri := zone(z.Ranges())
			for _, r := range tl.Block(id).Rows {
				if tri == predicate.TriFalse && want[r] {
					t.Errorf("%s: block %d decided false, but row %d matches", name, id, r)
				}
				if tri == predicate.TriTrue && !want[r] && ordered(tab, int(r), p) {
					t.Errorf("%s: block %d decided true, but row %d does not match", name, id, r)
				}
			}
		}
	}
}

// ordered reports whether every column p reads is neither NULL nor NaN at
// row: the rows a TriTrue zone decision speaks for.
func ordered(tab *relation.Table, row int, p predicate.Predicate) bool {
	ok := true
	p.VisitColumns(func(col string) {
		ci, _ := tab.Schema().ColumnIndex(col)
		if v := tab.Value(row, ci); v.IsNull() || v.Kind() == value.KindFloat && math.IsNaN(v.Float()) {
			ok = false
		}
	})
	return ok
}
