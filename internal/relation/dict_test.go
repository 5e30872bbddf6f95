package relation

import (
	"math"
	"reflect"
	"testing"

	"mto/internal/value"
)

func dictTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(MustSchema("t",
		Column{Name: "k", Type: value.KindInt},
		Column{Name: "s", Type: value.KindString},
		Column{Name: "f", Type: value.KindFloat},
	))
	rows := []struct {
		k value.Value
		s value.Value
	}{
		{value.Int(30), value.String("b")},
		{value.Int(10), value.String("a")},
		{value.Int(30), value.String("c")},
		{value.Null, value.String("a")},
		{value.Int(20), value.Null},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r.k, r.s, value.Float(1.5))
	}
	return tbl
}

func TestBuildColumnDictInt(t *testing.T) {
	d, err := BuildColumnDict(dictTable(t), "k")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCodes() != 3 {
		t.Fatalf("codes = %d, want 3 distinct", d.NumCodes())
	}
	wantVals := []int64{10, 20, 30}
	for i, v := range wantVals {
		if d.Ints[i] != v {
			t.Errorf("Ints[%d] = %d, want %d (ascending)", i, d.Ints[i], v)
		}
	}
	wantCodes := []int32{2, 0, 2, -1, 1}
	for r, c := range wantCodes {
		if d.Codes[r] != c {
			t.Errorf("Codes[%d] = %d, want %d", r, d.Codes[r], c)
		}
	}
	if got := d.Value(1); !got.Equal(value.Int(20)) {
		t.Errorf("Value(1) = %v", got)
	}
}

func TestBuildColumnDictString(t *testing.T) {
	d, err := BuildColumnDict(dictTable(t), "s")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCodes() != 3 || d.Strs[0] != "a" || d.Strs[2] != "c" {
		t.Fatalf("string dict = %v", d.Strs)
	}
	wantCodes := []int32{1, 0, 2, 0, -1}
	for r, c := range wantCodes {
		if d.Codes[r] != c {
			t.Errorf("Codes[%d] = %d, want %d", r, d.Codes[r], c)
		}
	}
}

// TestBuildColumnDictFloat pins the float rules: NULL and NaN rows get
// -1 (NaN matches no equijoin), -0 and +0 share one code labelled +0, ±Inf
// take the end ranks, CodeRange probes floats, and a missing column is
// refused.
func TestBuildColumnDictFloat(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	tbl := NewTable(MustSchema("t", Column{Name: "f", Type: value.KindFloat}))
	rows := []value.Value{value.Float(2.5), value.Float(math.NaN()), value.Float(negZero), value.Null,
		value.Float(inf), value.Float(0), value.Float(-inf), value.Float(2.5), value.Float(-1)}
	for _, v := range rows {
		tbl.MustAppendRow(v)
	}
	d, err := BuildColumnDict(tbl, "f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{-inf, -1, 0, 2.5, inf}; !reflect.DeepEqual(d.Flts, want) || d.NumCodes() != 5 {
		t.Fatalf("float dict = %v, want %v", d.Flts, want)
	}
	if math.Signbit(d.Flts[2]) {
		t.Error("the shared zero code is labelled -0, want +0")
	}
	if want := []int32{3, -1, 2, -1, 4, 2, 0, 3, 1}; !reflect.DeepEqual(d.Codes, want) {
		t.Errorf("Codes = %v, want %v", d.Codes, want)
	}
	if got := d.Value(4); got.Kind() != value.KindFloat || got.Float() != inf {
		t.Errorf("Value(4) = %v, want +Inf", got)
	}
	for _, c := range []struct {
		lit    value.Value
		lo, hi int32
		exists bool
	}{
		{value.Float(2.5), 3, 4, true},
		{value.Float(negZero), 2, 3, true},
		{value.Float(1), 3, 3, false},
		{value.Float(-inf), 0, 1, true},
		{value.Float(inf), 4, 5, true},
		{value.Float(math.NaN()), 0, 0, false},
		{value.Int(2), 0, 0, false}, // another kind is below every value
		{value.Null, 0, 0, false},
	} {
		lo, hi, exists := d.CodeRange(c.lit)
		if lo != c.lo || hi != c.hi || exists != c.exists {
			t.Errorf("CodeRange(%v) = %d, %d, %v, want %d, %d, %v", c.lit, lo, hi, exists, c.lo, c.hi, c.exists)
		}
	}
	if _, err := BuildColumnDict(tbl, "nope"); err == nil {
		t.Error("missing column dictionary-encoded")
	}
}

func TestTranslateCodes(t *testing.T) {
	a := NewTable(MustSchema("a", Column{Name: "k", Type: value.KindInt}))
	for _, v := range []int64{1, 3, 5, 7} {
		a.MustAppendRow(value.Int(v))
	}
	b := NewTable(MustSchema("b", Column{Name: "k", Type: value.KindInt}))
	for _, v := range []int64{3, 4, 7, 9} {
		b.MustAppendRow(value.Int(v))
	}
	da, _ := BuildColumnDict(a, "k")
	db, _ := BuildColumnDict(b, "k")
	xl := TranslateCodes(da, db)
	// a's values {1,3,5,7} → b codes for {3,7}, -1 otherwise.
	want := []int32{-1, 0, -1, 2}
	for i, w := range want {
		if xl[i] != w {
			t.Errorf("xl[%d] = %d, want %d", i, xl[i], w)
		}
	}
	// Same-dictionary translation is the identity.
	self := TranslateCodes(da, da)
	for i, c := range self {
		if c != int32(i) {
			t.Errorf("self xl[%d] = %d", i, c)
		}
	}
	// Float dictionaries merge like int ones; -0 meets +0, NaN meets
	// nothing.
	floats := func(name string, vs ...float64) *ColumnDict {
		tbl := NewTable(MustSchema(name, Column{Name: "k", Type: value.KindFloat}))
		for _, v := range vs {
			tbl.MustAppendRow(value.Float(v))
		}
		d, err := BuildColumnDict(tbl, "k")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fa := floats("fa", math.Inf(-1), math.Copysign(0, -1), 1.5, 3, math.NaN())
	fb := floats("fb", 0, 3, math.Inf(-1), 7.5, math.NaN())
	if got, want := TranslateCodes(fa, fb), []int32{0, 1, -1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("float xl = %v, want %v", got, want)
	}
	// Cross-kind translation never matches: int 1, 3 are not float 1, 3.
	s := NewTable(MustSchema("s", Column{Name: "k", Type: value.KindString}))
	s.MustAppendRow(value.String("3"))
	dsd, _ := BuildColumnDict(s, "k")
	df := floats("df", 1, 3, 5, 7)
	for name, xl := range map[string][]int32{
		"int→string": TranslateCodes(da, dsd), "int→float": TranslateCodes(da, df), "float→int": TranslateCodes(df, da),
	} {
		for i, c := range xl {
			if c != -1 {
				t.Errorf("%s xl[%d] = %d, want -1", name, i, c)
			}
		}
	}
}
