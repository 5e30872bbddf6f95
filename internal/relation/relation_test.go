package relation

import (
	"math/rand"
	"testing"

	"mto/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("t",
		Column{Name: "id", Type: value.KindInt, Unique: true},
		Column{Name: "price", Type: value.KindFloat},
		Column{Name: "name", Type: value.KindString},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewSchema("t", Column{Name: "", Type: value.KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema("t",
		Column{Name: "a", Type: value.KindInt},
		Column{Name: "a", Type: value.KindInt}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", Column{Name: "a", Type: value.KindNull}); err == nil {
		t.Error("null column type accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustSchema should panic on error")
			}
		}()
		MustSchema("")
	}()
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Table() != "t" || s.NumColumns() != 3 {
		t.Fatalf("basic accessors wrong: %s/%d", s.Table(), s.NumColumns())
	}
	if i, ok := s.ColumnIndex("price"); !ok || i != 1 {
		t.Errorf("ColumnIndex(price) = %d,%v", i, ok)
	}
	if _, ok := s.ColumnIndex("missing"); ok {
		t.Error("found missing column")
	}
	if s.MustColumnIndex("name") != 2 {
		t.Error("MustColumnIndex wrong")
	}
	if !s.IsUnique("id") || s.IsUnique("price") || s.IsUnique("missing") {
		t.Error("IsUnique wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustColumnIndex should panic")
			}
		}()
		s.MustColumnIndex("missing")
	}()
}

func TestTableAppendAndRead(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.MustAppendRow(value.Int(1), value.Float(9.5), value.String("a"))
	tab.MustAppendRow(value.Int(2), value.Null, value.String("b"))
	tab.MustAppendRow(value.Int(3), value.Int(4), value.Null) // int→float widening

	if tab.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if got := tab.Value(0, 0); got.Int() != 1 {
		t.Errorf("Value(0,0) = %v", got)
	}
	if got := tab.ValueByName(2, "price"); got.Float() != 4.0 {
		t.Errorf("widened value = %v", got)
	}
	if !tab.Value(1, 1).IsNull() || !tab.IsNullAt(1, 1) {
		t.Error("null not preserved")
	}
	if tab.IsNullAt(0, 1) {
		t.Error("spurious null")
	}
	if !tab.Value(2, 2).IsNull() {
		t.Error("null string not preserved")
	}
	row := tab.Row(1)
	if row[0].Int() != 2 || !row[1].IsNull() || row[2].Str() != "b" {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableAppendErrors(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.AppendRow(value.Int(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tab.AppendRow(value.String("x"), value.Float(1), value.String("a")); err == nil {
		t.Error("wrong type accepted")
	}
	if tab.NumRows() != 0 {
		t.Error("failed append changed row count")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAppendRow should panic")
			}
		}()
		tab.MustAppendRow(value.Int(1))
	}()
}

func TestRawVectorAccessors(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.MustAppendRow(value.Int(10), value.Float(1.5), value.String("x"))
	if tab.Ints(0)[0] != 10 || tab.Floats(1)[0] != 1.5 || tab.Strings(2)[0] != "x" {
		t.Error("raw accessors wrong")
	}
	for _, fn := range []func(){
		func() { tab.Ints(1) },
		func() { tab.Floats(0) },
		func() { tab.Strings(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on mistyped raw accessor")
				}
			}()
			fn()
		}()
	}
}

func TestSelectRowsAndAppendTable(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Float(float64(i)), value.String("r"))
	}
	sel := tab.SelectRows([]int{9, 0, 5})
	if sel.NumRows() != 3 || sel.Value(0, 0).Int() != 9 || sel.Value(2, 0).Int() != 5 {
		t.Error("SelectRows wrong")
	}
	dst := NewTable(tab.Schema())
	if err := dst.AppendTable(sel); err != nil {
		t.Fatal(err)
	}
	if dst.NumRows() != 3 {
		t.Error("AppendTable wrong")
	}
	other := NewTable(MustSchema("o", Column{Name: "x", Type: value.KindInt}))
	if err := dst.AppendTable(other); err == nil {
		t.Error("cross-schema append accepted")
	}
}

// selectRowsBoxed is the row-at-a-time SelectRows the typed gather replaced,
// kept as its reference.
func selectRowsBoxed(t *Table, rows []int) *Table {
	out := NewTable(t.schema)
	for _, r := range rows {
		out.MustAppendRow(t.Row(r)...)
	}
	return out
}

// TestSelectRowsMatchesBoxed: the typed gather builds the table the boxed
// loop built — same values, same nulls, a null mask exactly when a selected
// row is null — for every column kind, null density and index-list shape.
func TestSelectRowsMatchesBoxed(t *testing.T) {
	const n = 64
	for _, nulls := range []string{"none", "sparse", "all"} {
		tab := NewTable(testSchema(t))
		for i := 0; i < n; i++ {
			row := []value.Value{value.Int(int64(i * 3)), value.Float(float64(i) / 4), value.String(string(rune('a' + i%26)))}
			for c := range row {
				if nulls == "all" || (nulls == "sparse" && (i+c)%7 == 0) {
					row[c] = value.Null
				}
			}
			tab.MustAppendRow(row...)
		}
		lists := map[string][]int{
			"nil":      nil,
			"empty":    {},
			"one":      {5},
			"repeated": {3, 3, 0, 63, 3, 0},
			"reversed": {63, 40, 21, 2},
			"no-nulls": {1, 2, 3}, // rows the sparse pattern leaves whole in column 0
			"every":    make([]int, n),
		}
		for i := range lists["every"] {
			lists["every"][i] = i
		}
		for name, rows := range lists {
			got, want := tab.SelectRows(rows), selectRowsBoxed(tab, rows)
			if got.NumRows() != want.NumRows() || got.Schema() != want.Schema() {
				t.Fatalf("%s/%s: %d rows, want %d", nulls, name, got.NumRows(), want.NumRows())
			}
			for c := 0; c < 3; c++ {
				if (got.Nulls(c) == nil) != (want.Nulls(c) == nil) {
					t.Errorf("%s/%s col %d: null mask present = %v, boxed = %v", nulls, name, c, got.Nulls(c) != nil, want.Nulls(c) != nil)
				}
				for r := 0; r < want.NumRows(); r++ {
					if g, w := got.Value(r, c), want.Value(r, c); g != w {
						t.Errorf("%s/%s (%d,%d): %v, want %v", nulls, name, r, c, g, w)
					}
				}
			}
			// The gathered table is an ordinary table: it takes appends.
			got.MustAppendRow(value.Null, value.Float(1), value.String("z"))
			if got.NumRows() != len(rows)+1 || !got.IsNullAt(len(rows), 0) || got.Value(len(rows), 2).Str() != "z" {
				t.Errorf("%s/%s: append after gather broke the table", nulls, name)
			}
		}
	}
}

func TestSample(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 0; i < 10000; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Float(0), value.String(""))
	}
	rng := rand.New(rand.NewSource(7))
	s, rows := tab.Sample(0.1, 100, rng)
	if s.NumRows() != len(rows) {
		t.Fatal("mapping length mismatch")
	}
	if s.NumRows() < 700 || s.NumRows() > 1300 {
		t.Errorf("sample size %d far from 1000", s.NumRows())
	}
	for i := 0; i < s.NumRows(); i++ {
		if s.Value(i, 0).Int() != tab.Value(rows[i], 0).Int() {
			t.Fatal("sample mapping wrong")
		}
	}
	// Small tables are kept whole.
	small := NewTable(testSchema(t))
	for i := 0; i < 50; i++ {
		small.MustAppendRow(value.Int(int64(i)), value.Float(0), value.String(""))
	}
	w, wr := small.Sample(0.01, 100, rng)
	if w.NumRows() != 50 || len(wr) != 50 {
		t.Error("small table was sampled")
	}
	// rate >= 1 keeps everything.
	full, _ := tab.Sample(1.0, 0, rng)
	if full.NumRows() != tab.NumRows() {
		t.Error("rate=1 sampled")
	}
	// A pathological rate still returns at least one row.
	tiny, _ := tab.Sample(1e-9, 0, rng)
	if tiny.NumRows() == 0 {
		t.Error("sample returned zero rows")
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset()
	a := NewTable(MustSchema("a", Column{Name: "x", Type: value.KindInt}))
	b := NewTable(MustSchema("b", Column{Name: "y", Type: value.KindInt}))
	a.MustAppendRow(value.Int(1))
	b.MustAppendRow(value.Int(2))
	b.MustAppendRow(value.Int(3))
	d.MustAddTable(a)
	d.MustAddTable(b)
	if err := d.AddTable(a); err == nil {
		t.Error("duplicate table accepted")
	}
	if d.Table("a") != a || d.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
	names := d.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("TableNames = %v", names)
	}
	if d.NumRows() != 3 {
		t.Errorf("NumRows = %d", d.NumRows())
	}
	s, mapping := d.Sample(0.5, 0, rand.New(rand.NewSource(1)))
	if s.Table("a") == nil || s.Table("b") == nil {
		t.Error("sampled dataset missing tables")
	}
	if len(mapping["a"]) != s.Table("a").NumRows() {
		t.Error("mapping mismatch")
	}
}
