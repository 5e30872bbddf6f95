package relation

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"mto/internal/value"
)

// SortedIntDict builds the sorted form of an int column's dictionary,
// whichever form BuildColumnDict picks for it.
func SortedIntDict(t *Table, col string) *ColumnDict {
	ci := t.Schema().MustColumnIndex(col)
	d := &ColumnDict{Kind: value.KindInt}
	d.Ints, d.Codes = encode(t.Ints(ci), t.Nulls(ci))
	return d
}

// CheckSameDict fails tb unless got and want encode the same int column
// alike: codes, NumCodes, Value, IntCode, CodeRange and Rank over literals
// at, around and beyond the column's values, of every kind.
func CheckSameDict(tb testing.TB, name string, got, want *ColumnDict) {
	tb.Helper()
	n := want.NumCodes()
	if got.NumCodes() != n || got.NumRows() != want.NumRows() {
		tb.Fatalf("%s: %d codes over %d rows, want %d over %d", name, got.NumCodes(), got.NumRows(), n, want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		if got.Code(r) != want.Code(r) {
			tb.Fatalf("%s: row %d has code %d, want %d", name, r, got.Code(r), want.Code(r))
		}
	}
	for c := int32(0); c < int32(n); c++ {
		if !got.Value(c).Equal(want.Value(c)) {
			tb.Fatalf("%s: code %d is %v, want %v", name, c, got.Value(c), want.Value(c))
		}
	}
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, c := range []int{0, 1, n / 2, n - 2, n - 1} {
		if c >= 0 && c < n {
			v := want.Ints[c]
			ints = append(ints, v, v-1, v+1, v-2, v+2) // wraps at the ends: still a probe
		}
	}
	lits := []value.Value{value.Null, value.String("7"), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(1e300), value.Float(-1e300)}
	for _, x := range ints {
		lits = append(lits, value.Int(x), value.Float(float64(x)), value.Float(float64(x)+0.5), value.Float(float64(x)-0.5))
		if g, w := got.IntCode(x), want.IntCode(x); g != w {
			tb.Fatalf("%s: IntCode(%d) = %d, want %d", name, x, g, w)
		}
	}
	for _, lit := range lits {
		gl, gh, ge := got.CodeRange(lit)
		wl, wh, we := want.CodeRange(lit)
		if gl != wl || gh != wh || ge != we {
			tb.Fatalf("%s: CodeRange(%v) = %d, %d, %v, want %d, %d, %v", name, lit, gl, gh, ge, wl, wh, we)
		}
		for _, orEqual := range []bool{false, true} {
			gc, gok := got.Rank(lit, orEqual)
			wc, wok := want.Rank(lit, orEqual)
			if gc != wc || gok != wok {
				tb.Fatalf("%s: Rank(%v, %v) = %d, %v, want %d, %v", name, lit, orEqual, gc, gok, wc, wok)
			}
		}
	}
}

// CheckSameTranslation fails tb unless TranslateCodes from → to equals
// wantFrom → wantTo, and, when both are intervals, IntervalShift agrees
// with it code by code.
func CheckSameTranslation(tb testing.TB, name string, from, to, wantFrom, wantTo *ColumnDict) {
	tb.Helper()
	got, want := TranslateCodes(from, to), TranslateCodes(wantFrom, wantTo)
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: TranslateCodes differs from the sorted forms'", name)
	}
	shift, ok := IntervalShift(from, to)
	if ok != (from.span > 0 && to.span > 0) {
		tb.Fatalf("%s: IntervalShift ok = %v", name, ok)
	}
	if !ok {
		return
	}
	for c, w := range want {
		g := int32(-1)
		if t := uint32(c) + uint32(shift); t < uint32(to.NumCodes()) {
			g = int32(t)
		}
		if g != w {
			tb.Fatalf("%s: code %d shifts to %d, want %d", name, c, g, w)
		}
	}
}

// FuzzColumnDict builds an int column from the input — each 9-byte chunk
// a null flag and an offset from a base the first byte picks (near
// MinInt64, near MaxInt64, negative, zero, or spanning both ends) — and
// checks BuildColumnDict against the sorted form, and the column's
// translations into and out of itself and a copy shifted by an amount the
// first byte also picks (none, overlapping or disjoint).
func FuzzColumnDict(f *testing.F) {
	chunk := func(null bool, off int64) []byte {
		b := make([]byte, 9)
		if null {
			b[0] = 1
		}
		binary.LittleEndian.PutUint64(b[1:], uint64(off))
		return b
	}
	seed := func(base byte, rows ...[]byte) []byte {
		out := []byte{base}
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	dense := func(base byte, lo, hi int64) []byte {
		var rows [][]byte
		for v := hi; v >= lo; v-- {
			rows = append(rows, chunk(false, v), chunk(v%3 == 0, v))
		}
		return seed(base, rows...)
	}
	f.Add(dense(0, 0, 5))                                                             // near MinInt64
	f.Add(dense(1, 0, 5))                                                             // near MaxInt64
	f.Add(dense(2, 0, 40))                                                            // negatives
	f.Add(dense(3, 0, 0))                                                             // a single value
	f.Add(seed(3, chunk(true, 4), chunk(true, 9)))                                    // all null
	f.Add(seed(3, chunk(false, 1), chunk(false, 3), chunk(false, 4)))                 // one hole
	f.Add(seed(4, chunk(false, 0), chunk(false, 1), chunk(false, 2)))                 // MinInt64 and MaxInt64: max − min overflows
	f.Add(seed(3, chunk(false, 2), chunk(true, 7), chunk(false, 3), chunk(false, 2))) // null rows
	f.Add(dense(5, 0, 9))                                                             // near MinInt64, shifted by 7
	f.Add(dense(6, 0, 9))                                                             // near MaxInt64, shifted by 7
	f.Add(dense(13, 0, 20))                                                           // shifted by 14: overlapping
	f.Add(dense(103, 0, 20))                                                          // shifted by 140: disjoint
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 1+9*512 {
			return
		}
		bases := []int64{math.MinInt64, math.MaxInt64 - 63, -1 << 40, 0, 0}
		kind, sh := int(data[0])%len(bases), int64(data[0]/5)*7
		tbl := NewTable(MustSchema("t", Column{Name: "k", Type: value.KindInt}))
		shifted := NewTable(MustSchema("s", Column{Name: "k", Type: value.KindInt}))
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			off := int64(binary.LittleEndian.Uint64(data[1:]))
			v := bases[kind] + off%64
			if kind == 4 { // both ends of the int64 range
				v = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}[uint64(off)%4]
			}
			row := value.Int(v)
			if data[0]&1 == 1 {
				row = value.Null
			}
			tbl.MustAppendRow(row)
			if v <= math.MaxInt64-sh && !row.IsNull() {
				row = value.Int(v + sh)
			}
			shifted.MustAppendRow(row)
		}
		d, err := BuildColumnDict(tbl, "k")
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildColumnDict(shifted, "k")
		if err != nil {
			t.Fatal(err)
		}
		sorted, sortedS := SortedIntDict(tbl, "k"), SortedIntDict(shifted, "k")
		if ok := d.span > 0; ok != (len(sorted.Ints) > 0 && sorted.Ints[len(sorted.Ints)-1]-sorted.Ints[0] == int64(len(sorted.Ints)-1)) {
			t.Fatalf("interval form %v for values %v", ok, sorted.Ints)
		}
		CheckSameDict(t, "column", d, sorted)
		CheckSameDict(t, "shifted column", s, sortedS)
		for name, p := range map[string][4]*ColumnDict{
			"self": {d, d, sorted, sorted}, "to shifted": {d, s, sorted, sortedS}, "from shifted": {s, d, sortedS, sorted},
			"to sorted": {d, sortedS, sorted, sortedS}, "from sorted": {sorted, s, sorted, sortedS},
		} {
			CheckSameTranslation(t, name, p[0], p[1], p[2], p[3])
		}
	})
}
