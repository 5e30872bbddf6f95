package colstore

import (
	"math"
	"reflect"
	"testing"
)

// mustBodyPage views an encoder's output, [enc][body], as a page.
func mustBodyPage(t *testing.T, buf []byte) pageView {
	t.Helper()
	pv, err := bodyPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	return pv
}

func roundTripInts(t *testing.T, vals []int64, wantEnc byte) {
	t.Helper()
	w := &bufWriter{}
	encodeInts(w, vals)
	if len(w.buf) == 0 || (wantEnc != 0 && w.buf[0] != wantEnc) {
		t.Fatalf("enc = 0x%02x, want 0x%02x", w.buf[0], wantEnc)
	}
	got, err := decodeInts(mustBodyPage(t, w.buf), len(vals), new(scratch))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestEncodeIntsRoundTrip(t *testing.T) {
	roundTripInts(t, nil, encIntRaw)
	roundTripInts(t, []int64{42}, 0) // single value: FOR or delta, width 0
	roundTripInts(t, []int64{7, 7, 7, 7}, 0)
	// Sorted runs delta-pack tighter than FOR.
	seq := make([]int64, 1000)
	for i := range seq {
		seq[i] = int64(1_000_000 + i)
	}
	roundTripInts(t, seq, encIntDelta)
	// Scattered small range: FOR wins once the wider delta width can't be
	// amortized by having one fewer element.
	alt := make([]int64, 16)
	for i := range alt {
		alt[i] = int64(i%2) * 1000
	}
	roundTripInts(t, alt, encIntFOR)
	// Full-range extremes round-trip through two's-complement wrapping.
	roundTripInts(t, []int64{math.MinInt64, math.MaxInt64, 0, -1}, 0)
	roundTripInts(t, []int64{math.MinInt64, math.MinInt64 + 1}, 0)
	// Both FOR and delta ranges need 64 bits here: the raw fallback.
	roundTripInts(t, []int64{5, 5, math.MinInt64 + 5}, encIntRaw)
}

func TestEncodeFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, -0.0, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	w := &bufWriter{}
	encodeFloats(w, vals)
	got, err := decodeFloats(mustBodyPage(t, w.buf), len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("vals[%d] = %v, want %v (bit-exact)", i, got[i], vals[i])
		}
	}
}

func TestEncodeStringsRoundTrip(t *testing.T) {
	cases := []struct {
		vals    []string
		wantEnc byte
	}{
		{nil, encStrRaw},
		{[]string{"only"}, encStrRaw},                          // all distinct → raw
		{[]string{"a", "b", "c"}, encStrRaw},                   // all distinct → raw
		{[]string{"x", "y", "x", "y", "x", "x"}, encStrDict},   // repeats → dict
		{[]string{"", "", "", "non-empty", ""}, encStrDict},    // empty strings
		{[]string{"same", "same", "same", "same"}, encStrDict}, // single symbol, width 0
	}
	for _, c := range cases {
		w := &bufWriter{}
		encodeStrings(w, c.vals)
		if len(c.vals) > 0 && w.buf[0] != c.wantEnc {
			t.Fatalf("%q: enc = 0x%02x, want 0x%02x", c.vals, w.buf[0], c.wantEnc)
		}
		got, err := decodeStrings(mustBodyPage(t, w.buf), len(c.vals), new(scratch))
		if err != nil {
			t.Fatalf("%q: %v", c.vals, err)
		}
		if len(got) != len(c.vals) {
			t.Fatalf("%q: len %d", c.vals, len(got))
		}
		for i := range c.vals {
			if got[i] != c.vals[i] {
				t.Fatalf("%q: vals[%d] = %q", c.vals, i, got[i])
			}
		}
	}
}

func TestPackBitsRoundTrip(t *testing.T) {
	for _, width := range []int{0, 1, 3, 7, 8, 13, 31, 33, 63, 64} {
		vals := make([]uint64, 17)
		for i := range vals {
			v := uint64(i) * 0x9e3779b97f4a7c15
			if width < 64 {
				v &= (1 << width) - 1
			}
			vals[i] = v
		}
		packed := packBits(vals, width)
		got := make([]uint64, len(vals))
		unpackBitsInto(got, packed, width)
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: %v != %v", width, got, vals)
		}
		for i, want := range vals {
			if c := unpackAt(packed, i, width); c != want {
				t.Fatalf("width %d: unpackAt(%d) = %d, want %d", width, i, c, want)
			}
		}
	}
}

func TestNullMaskRoundTrip(t *testing.T) {
	cases := [][]bool{
		nil,
		{false, false, false},
		{true},
		{true, false, true, true, false, false, true, false, true},
	}
	for _, nulls := range cases {
		w := &bufWriter{}
		encodeNulls(w, nulls, len(nulls))
		encodeInts(w, make([]int64, len(nulls)))
		pv, err := parsePage(w.buf, len(nulls))
		if err != nil {
			t.Fatal(err)
		}
		got := pv.nullFlags(len(nulls))
		any := false
		for _, b := range nulls {
			any = any || b
		}
		if !any {
			if got != nil {
				t.Fatalf("%v: expected nil mask", nulls)
			}
			continue
		}
		if !reflect.DeepEqual(got, nulls) {
			t.Fatalf("%v != %v", got, nulls)
		}
	}
}
