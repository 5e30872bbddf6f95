package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mto/internal/value"
)

// The oracles below are the row-at-a-time loops the register-word kernels
// replaced: each row read-modify-writes its own mask word.

func maskCompareOracle[T int64 | float64 | string](vals []T, op Op, lit T, mask []uint64) {
	for r, v := range vals {
		if opHolds(v, op, lit) {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

func maskCompareColsOracle[T int64 | float64 | string](l, rt []T, op Op, mask []uint64) {
	for r, v := range l {
		if opHolds(v, op, rt[r]) {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// opHolds is (v op lit) with "<>" as "<" or ">", so NaN matches nothing.
func opHolds[T int64 | float64 | string](v T, op Op, lit T) bool {
	switch op {
	case Eq:
		return v == lit
	case Ne:
		return v < lit || v > lit
	case Lt:
		return v < lit
	case Le:
		return v <= lit
	case Gt:
		return v > lit
	default:
		return v >= lit
	}
}

func maskBandOracle[T int64 | uint64](vals []T, lo, hi uint64, neg bool, mask []uint64) {
	for r, v := range vals {
		if (uint64(v)-lo <= hi-lo) != neg {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

func maskMembersOracle(codes, member []uint64, neg bool, mask []uint64) {
	for r, c := range codes {
		if (member[c>>6]>>(c&63)&1 == 1) != neg {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

func maskIntFloatOracle(l []int64, rt []float64, op Op, mask []uint64) {
	for r, v := range l {
		if f := rt[r]; f == f && op.Apply(value.CompareIntFloat(v, f)) {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

func maskInListOracle[T int64 | string](vals []T, set map[T]struct{}, neg bool, mask []uint64) {
	for r, v := range vals {
		if _, found := set[v]; found != neg {
			mask[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// kernelLengths straddle every word boundary a register word can get
// wrong: empty, one row, a word less one, a word, a word plus one, and so
// on, and a long run.
var kernelLengths = []int{0, 1, 63, 64, 65, 127, 128, 129, 1000}

// checkKernel runs a kernel and its oracle over n rows into zeroed masks
// one word longer than the rows need, so a bit set past the rows shows.
func checkKernel(t *testing.T, label string, n int, kernel, oracle func(mask []uint64)) {
	t.Helper()
	got, want := make([]uint64, n/64+2), make([]uint64, n/64+2)
	kernel(got)
	oracle(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, %d rows: got %x, want %x", label, n, got, want)
	}
}

// pick draws n values from pool.
func pick[T any](rng *rand.Rand, pool []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func TestMaskKernelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nan, inf := math.NaN(), math.Inf(1)
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -3, -1, 0, 1, 2, 3, 7, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{nan, -inf, inf, math.Copysign(0, -1), 0, -2.5, 1, 2.5, 1e300, math.SmallestNonzeroFloat64}
	strs := []string{"", "a", "ab", "abc", "abd", "abc\x00", "b", "ba", "\xff", "abcabc"}
	for _, n := range kernelLengths {
		iv, iv2 := pick(rng, ints, n), pick(rng, ints, n)
		fv, fv2 := pick(rng, floats, n), pick(rng, floats, n)
		sv, sv2 := pick(rng, strs, n), pick(rng, strs, n)
		for _, op := range allOps {
			for _, lit := range ints {
				checkKernel(t, fmt.Sprintf("int %s %d", op, lit), n,
					func(m []uint64) { MaskCompare(iv, op, lit, m) }, func(m []uint64) { maskCompareOracle(iv, op, lit, m) })
			}
			for _, lit := range floats {
				checkKernel(t, fmt.Sprintf("float %s %v", op, lit), n,
					func(m []uint64) { MaskCompare(fv, op, lit, m) }, func(m []uint64) { maskCompareOracle(fv, op, lit, m) })
				checkKernel(t, fmt.Sprintf("int-float %s", op), n,
					func(m []uint64) { MaskCompareIntFloat(iv, fv, op, m) }, func(m []uint64) { maskIntFloatOracle(iv, fv, op, m) })
			}
			for _, lit := range strs {
				checkKernel(t, fmt.Sprintf("string %s %q", op, lit), n,
					func(m []uint64) { MaskCompare(sv, op, lit, m) }, func(m []uint64) { maskCompareOracle(sv, op, lit, m) })
			}
			checkKernel(t, fmt.Sprintf("int cols %s", op), n,
				func(m []uint64) { MaskCompareCols(iv, iv2, op, m) }, func(m []uint64) { maskCompareColsOracle(iv, iv2, op, m) })
			checkKernel(t, fmt.Sprintf("float cols %s", op), n,
				func(m []uint64) { MaskCompareCols(fv, fv2, op, m) }, func(m []uint64) { maskCompareColsOracle(fv, fv2, op, m) })
			checkKernel(t, fmt.Sprintf("string cols %s", op), n,
				func(m []uint64) { MaskCompareCols(sv, sv2, op, m) }, func(m []uint64) { maskCompareColsOracle(sv, sv2, op, m) })
		}
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = uint64(rng.Intn(130))
		}
		member := make([]uint64, 3)
		for i := range member {
			member[i] = rng.Uint64()
		}
		for _, neg := range []bool{false, true} {
			for _, b := range [][2]uint64{{0, 0}, {5, 5}, {0, 63}, {3, 129}, {64, math.MaxUint64}, {0, math.MaxUint64}} {
				checkKernel(t, fmt.Sprintf("code band [%d, %d] neg %v", b[0], b[1], neg), n,
					func(m []uint64) { MaskBand(codes, b[0], b[1], neg, m) }, func(m []uint64) { maskBandOracle(codes, b[0], b[1], neg, m) })
			}
			for _, b := range [][2]int64{{math.MinInt64, -1}, {-3, 3}, {0, math.MaxInt64}, {math.MinInt64, math.MaxInt64}} {
				lo, hi := uint64(b[0]), uint64(b[1])
				checkKernel(t, fmt.Sprintf("int band [%d, %d] neg %v", b[0], b[1], neg), n,
					func(m []uint64) { MaskBand(iv, lo, hi, neg, m) }, func(m []uint64) { maskBandOracle(iv, lo, hi, neg, m) })
			}
			checkKernel(t, fmt.Sprintf("members neg %v", neg), n,
				func(m []uint64) { MaskMembers(codes, member, neg, m) }, func(m []uint64) { maskMembersOracle(codes, member, neg, m) })
			iset := map[int64]struct{}{math.MinInt64: {}, 0: {}, 3: {}}
			checkKernel(t, fmt.Sprintf("int IN neg %v", neg), n,
				func(m []uint64) { maskInList(iv, iset, neg, m) }, func(m []uint64) { maskInListOracle(iv, iset, neg, m) })
			sset := map[string]struct{}{"ab": {}, "abc\x00": {}, "": {}}
			checkKernel(t, fmt.Sprintf("string IN neg %v", neg), n,
				func(m []uint64) { maskInList(sv, sset, neg, m) }, func(m []uint64) { maskInListOracle(sv, sset, neg, m) })
		}
	}
}

// randomIntBands is an OR of two to four int bands on x, with bounds from
// a small range or the int64 extremes, either side inclusive or not: so
// they overlap, touch (hi+1 == lo), lie apart or hold no int.
func randomIntBands(rng *rand.Rand) Predicate {
	bound := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64 + int64(rng.Intn(2))
		case 1:
			return math.MaxInt64 - int64(rng.Intn(2))
		}
		return int64(rng.Intn(40)) - 20
	}
	kids := make([]Predicate, 2+rng.Intn(3))
	for i := range kids {
		lo, hi := bound(), bound()
		if rng.Intn(4) > 0 && lo > hi {
			lo, hi = hi, lo
		}
		loOp, hiOp := Ge, Le
		if rng.Intn(3) == 0 {
			loOp = Gt
		}
		if rng.Intn(3) == 0 {
			hiOp = Lt
		}
		kids[i] = NewAnd(NewComparison("x", loOp, value.Int(lo)), NewComparison("x", hiOp, value.Int(hi)))
	}
	return NewOr(kids...)
}

// holdsAt evaluates an AND/OR tree of comparisons on one column at x.
func holdsAt(p Predicate, x value.Value) bool {
	switch q := p.(type) {
	case *Comparison:
		return compareValues(x, q.Op, q.Value)
	case *And:
		return !slices.ContainsFunc(q.Children, func(c Predicate) bool { return !holdsAt(c, x) })
	}
	return slices.ContainsFunc(p.(*Or).Children, func(c Predicate) bool { return holdsAt(c, x) })
}

// TestOrOfBandsCompilesToUnion checks that an OR of int bands on one
// column compiles to disjoint, non-adjacent bands, ascending, holding
// exactly the ints the OR holds, and that on random zones their decision
// never contradicts the OR's (CompileRanges) and is at least as sharp:
// where the OR decides, the union decides the same; where the union
// decides and the OR does not, every int of the zone agrees.
func TestOrOfBandsCompilesToUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kindOf := func(string) (value.Kind, bool) { return value.KindInt, true }
	for i := 0; i < 2000; i++ {
		p := randomIntBands(rng)
		node := CompileScan(p, kindOf)
		var bands []*ScanBand
		switch q := node.(type) {
		case *ScanBand:
			bands = []*ScanBand{q}
		case *ScanOr:
			for _, c := range q.Children {
				b, ok := c.(*ScanBand)
				if !ok {
					t.Fatalf("%s: union child %#v is not a band", p, c)
				}
				bands = append(bands, b)
			}
		case ScanConst:
			if bool(q) {
				t.Fatalf("%s compiled to true", p)
			}
		default:
			t.Fatalf("%s compiled to %#v", p, node)
		}
		evalOr := CompileRanges(normalize(p, kindOf))
		holds := func(x int64) bool { return holdsAt(p, value.Int(x)) }
		inUnion := func(x int64) bool {
			for _, b := range bands {
				if lo, hi, ok := b.Ints(); ok && lo <= x && x <= hi {
					return true
				}
			}
			return false
		}
		// An OR of bands that hold no int stays as it is.
		allEmpty := !slices.ContainsFunc(bands, func(b *ScanBand) bool { _, _, ok := b.Ints(); return ok })
		for k, b := range bands {
			lo, hi, ok := b.Ints()
			if allEmpty {
				break
			}
			if !ok {
				t.Fatalf("%s: empty band %v in the union", p, b)
			}
			if k > 0 {
				if _, prev, _ := bands[k-1].Ints(); prev >= lo-1 {
					t.Fatalf("%s: bands %d and %d overlap or touch", p, k-1, k)
				}
			}
			for _, x := range []int64{lo - 1, lo, hi, hi + 1} {
				if holds(x) != inUnion(x) {
					t.Fatalf("%s: x = %d: OR %v, union %v", p, x, holds(x), inUnion(x))
				}
			}
		}
		for z := 0; z < 20; z++ {
			zmin := int64(rng.Intn(50)) - 25
			zmax := zmin + int64(rng.Intn(20))
			zone := Ranges{"x": NewInterval(value.Int(zmin), value.Int(zmax), true, true)}
			got := TriFalse
			for _, b := range bands {
				got = max(got, b.Zone(zone))
			}
			want := evalOr(zone)
			all, none := true, true
			for x := zmin; x <= zmax; x++ {
				all, none = all && holds(x), none && !holds(x)
			}
			switch {
			case want != TriMaybe && got != want:
				t.Fatalf("%s on [%d, %d]: union %v, OR %v", p, zmin, zmax, got, want)
			case got == TriTrue && !all, got == TriFalse && !none:
				t.Fatalf("%s on [%d, %d]: union decides %v, wrongly", p, zmin, zmax, got)
			}
		}
	}
}
