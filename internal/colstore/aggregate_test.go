package colstore

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// aggMatrix is the identity matrix: every aggregate operator over every
// scanTable column (hence every page encoding), plus COUNT(*).
func aggMatrix() []workload.Aggregate {
	out := []workload.Aggregate{{Op: workload.AggCount, Alias: "sc"}}
	for _, col := range []string{"i_for", "i_delta", "i_raw", "f", "s_dict", "s_raw"} {
		for _, op := range []workload.AggOp{workload.AggSum, workload.AggCount, workload.AggMin, workload.AggMax, workload.AggAvg} {
			out = append(out, workload.Aggregate{Op: op, Alias: "sc", Column: col})
		}
	}
	return out
}

// wantSupported is the expected compile-time support decision for each
// matrix entry: COUNT always folds; MIN/MAX fold for ints and strings;
// SUM/AVG fold only for int columns whose zone maps bound the sum — which
// rules out i_raw (values near ±MaxInt64) — and floats never fold.
func wantSupported(a workload.Aggregate) bool {
	if a.Column == "" {
		return a.Op == workload.AggCount
	}
	switch a.Op {
	case workload.AggCount:
		return true
	case workload.AggSum, workload.AggAvg:
		return a.Column == "i_for" || a.Column == "i_delta"
	default:
		return a.Column != "f"
	}
}

// survivorMasks builds base-row survivor bitmaps at the selectivities
// that pick different fold kernels: full blocks (zone-only MIN/MAX, whole-
// word sums), empty, sparse (random-access packed reads), and dense.
func survivorMasks(n int) map[string][]uint64 {
	mk := func(pred func(int) bool) []uint64 {
		m := make([]uint64, (n+63)/64)
		for r := 0; r < n; r++ {
			if pred(r) {
				m[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(42))
	random := mk(func(int) bool { return rng.Intn(2) == 0 })
	return map[string][]uint64{
		"all":       mk(func(int) bool { return true }),
		"none":      mk(func(int) bool { return false }),
		"every-3rd": mk(func(r int) bool { return r%3 == 0 }),
		"sparse":    mk(func(r int) bool { return r%37 == 0 }),
		"single":    mk(func(r int) bool { return r == 137 }),
		"random":    random,
	}
}

// referenceAgg folds one aggregate row-at-a-time from the base table — the
// definition the compressed fold must reproduce exactly — and counts the
// survivors (COUNT(*)).
func referenceAgg(t *testing.T, tab *relation.Table, a workload.Aggregate, survivors []uint64) (rows int64, st block.AggState) {
	t.Helper()
	ci := -1
	if a.Column != "" {
		var ok bool
		ci, ok = tab.Schema().ColumnIndex(a.Column)
		if !ok {
			t.Fatalf("no column %q", a.Column)
		}
	}
	for r := 0; r < tab.NumRows(); r++ {
		if survivors[r>>6]>>(uint(r)&63)&1 == 0 {
			continue
		}
		rows++
		if ci < 0 || tab.IsNullAt(r, ci) {
			continue
		}
		switch v := tab.Value(r, ci); v.Kind() {
		case value.KindInt:
			st.FoldInt(v.Int())
		case value.KindString:
			st.FoldStr(v.Str())
		default:
			st.Count++
		}
	}
	return rows, st
}

// compareAgg checks the fields the column aggregate's operator reads — the
// compressed fold deliberately leaves the other fields untouched.
func compareAgg(t *testing.T, label string, a workload.Aggregate, kind value.Kind, got, want *block.AggState) {
	t.Helper()
	switch a.Op {
	case workload.AggCount:
		if got.Count != want.Count {
			t.Errorf("%s: Count=%d want %d", label, got.Count, want.Count)
		}
	case workload.AggSum, workload.AggAvg:
		if got.Sum != want.Sum || got.Count != want.Count {
			t.Errorf("%s: Sum=%d Count=%d want Sum=%d Count=%d", label, got.Sum, got.Count, want.Sum, want.Count)
		}
	case workload.AggMin:
		if got.Seen != want.Seen {
			t.Errorf("%s: Seen=%v want %v", label, got.Seen, want.Seen)
		} else if want.Seen {
			if kind == value.KindString && got.MinS != want.MinS {
				t.Errorf("%s: MinS=%q want %q", label, got.MinS, want.MinS)
			}
			if kind == value.KindInt && got.MinI != want.MinI {
				t.Errorf("%s: MinI=%d want %d", label, got.MinI, want.MinI)
			}
		}
	case workload.AggMax:
		if got.Seen != want.Seen {
			t.Errorf("%s: Seen=%v want %v", label, got.Seen, want.Seen)
		} else if want.Seen {
			if kind == value.KindString && got.MaxS != want.MaxS {
				t.Errorf("%s: MaxS=%q want %q", label, got.MaxS, want.MaxS)
			}
			if kind == value.KindInt && got.MaxI != want.MaxI {
				t.Errorf("%s: MaxI=%d want %d", label, got.MaxI, want.MaxI)
			}
		}
	}
}

// TestCompressedAggregateMatchesReference is the per-encoding identity
// gate for the ungrouped fold (CompileFold with the zero GroupKey, one
// slot): every aggregate it accepts must fold to exactly the row-at-a-time reference over the base table, on
// single-block and out-of-order multi-block layouts (exercising both the
// word-copy and the permuted survivor localization), with and without a
// cache, at every survivor selectivity.
func TestCompressedAggregateMatchesReference(t *testing.T) {
	tab := scanTable(t, 200)
	n := tab.NumRows()
	layouts := map[string][][]int32{
		"single-block": {seq32(0, n)},
		"two-blocks":   {seq32(n/2, n), seq32(0, n/2)},
		"interleaved":  interleavedGroups(n, 3),
	}
	aggs := aggMatrix()
	masks := survivorMasks(n)
	kinds := map[string]value.Kind{}
	for i := 0; i < tab.Schema().NumColumns(); i++ {
		c := tab.Schema().Column(i)
		kinds[c.Name] = c.Type
	}
	for name, groups := range layouts {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s-cache%d", name, cacheBytes), func(t *testing.T) {
				s := newScanStore(t, tab, groups, cacheBytes)
				ca := s.CompileFold("sc", block.GroupKey{}, aggs)
				if ca == nil {
					t.Fatal("CompileFold returned nil for a stored table")
				}
				sup := ca.Supported()
				for i, a := range aggs {
					if want := wantSupported(a); sup[i] != want {
						t.Errorf("%s: supported=%v want %v", a, sup[i], want)
					}
				}
				for mname, surv := range masks {
					gs := block.NewGroupedStates(1, sup)
					for id := 0; id < s.NumBlocks("sc"); id++ {
						if err := foldRowMask(ca, id, surv, gs); err != nil {
							t.Fatal(err)
						}
					}
					for i, a := range aggs {
						if !sup[i] {
							continue
						}
						wantRows, want := referenceAgg(t, tab, a, surv)
						if gs.Rows[0] != wantRows { // COUNT(*)
							t.Errorf("%s/%s: Rows=%d want %d", mname, a, gs.Rows[0], wantRows)
						}
						if a.Column != "" {
							compareAgg(t, fmt.Sprintf("%s/%s", mname, a), a, kinds[a.Column], &gs.Aggs[i][0], &want)
						}
					}
				}
			})
		}
	}
}

// TestCompressedAggregateOverflowGuard pins the compile-time overflow
// bound: FOR frames near ±MaxInt64 must decline the compressed SUM (the
// engine then folds materialized, with checked additions), while large-
// but-provably-safe magnitudes stay supported and fold exactly.
func TestCompressedAggregateOverflowGuard(t *testing.T) {
	sum := []workload.Aggregate{{Op: workload.AggSum, Alias: "sc", Column: "big"}}
	mkTab := func(vals []int64) *relation.Table {
		tab := relation.NewTable(relation.MustSchema("sc", relation.Column{Name: "big", Type: value.KindInt}))
		for _, v := range vals {
			tab.MustAppendRow(value.Int(v))
		}
		return tab
	}
	rng := rand.New(rand.NewSource(9))

	// 64 rows in [MaxInt64-2000, MaxInt64-1901]: a narrow FOR frame whose
	// nrows·|max| bound overflows — compressed SUM must be declined.
	big := make([]int64, 64)
	for i := range big {
		big[i] = math.MaxInt64 - 2000 + int64(rng.Intn(100))
	}
	s := newScanStore(t, mkTab(big), [][]int32{seq32(0, 64)}, 0)
	if s.CompileFold("sc", block.GroupKey{}, sum).Supported()[0] {
		t.Error("near-MaxInt64 FOR frame accepted for compressed SUM")
	}

	// MinInt64 itself: |min| needs the full uint64 range (absInt64's edge)
	// and 2·2^63 overflows the product's high word.
	s = newScanStore(t, mkTab([]int64{math.MinInt64, 0}), [][]int32{seq32(0, 2)}, 0)
	if s.CompileFold("sc", block.GroupKey{}, sum).Supported()[0] {
		t.Error("MinInt64 frame accepted for compressed SUM")
	}

	// 64 rows around 2^54: the bound is ~2^60 ≤ 2^62, so the fold runs —
	// on a FOR page with a huge frame value — and must match the scalar
	// sum exactly, fully and partially selected.
	safe := make([]int64, 64)
	for i := range safe {
		safe[i] = 1<<54 + int64(rng.Intn(100))
	}
	s = newScanStore(t, mkTab(safe), [][]int32{seq32(0, 64)}, 0)
	ca := s.CompileFold("sc", block.GroupKey{}, sum)
	if !ca.Supported()[0] {
		t.Fatal("provably-safe 2^54 frame declined for compressed SUM")
	}
	if pv, err := parsePage(s.state("sc").seg.mustEncoded(t, 0)[0], 64); err != nil || pv.enc != encIntFOR {
		t.Fatalf("want a FOR page for the safe frame, got enc=%#x err=%v", pv.enc, err)
	}
	for _, tc := range []struct {
		name string
		keep func(int) bool
	}{
		{"all", func(int) bool { return true }},
		{"every-other", func(r int) bool { return r%2 == 0 }},
	} {
		surv := make([]uint64, 1)
		var want int64
		for r := range safe {
			if tc.keep(r) {
				surv[0] |= 1 << uint(r)
				want += safe[r]
			}
		}
		gs := block.NewGroupedStates(1, ca.Supported())
		if err := foldRowMask(ca, 0, surv, gs); err != nil {
			t.Fatal(err)
		}
		if got := gs.Aggs[0][0].Sum; got != want {
			t.Errorf("%s: Sum=%d want %d", tc.name, got, want)
		}
	}
}

// mustEncoded is a test helper: every column page payload of block id.
func (seg *Segment) mustEncoded(t *testing.T, id int) [][]byte {
	t.Helper()
	all := make([]int, len(seg.cols))
	for ci := range all {
		all[ci] = ci
	}
	eb, _, err := seg.readPages(id, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eb.Cols
}

// FuzzCompressedAggregate cross-checks the page-level fold kernels —
// packed FOR sums, packed-domain MIN/MAX, dictionary-rank extremes, null
// clearing — against a row-at-a-time fold on randomly generated single-
// column pages, mirroring FuzzCompressedPredicate. Sums are compared mod
// 2^64 (uint64 accumulation and wrapped int64 reference agree exactly),
// so even distributions CompileFold would decline check out here.
func FuzzCompressedAggregate(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(128))
	f.Add(int64(2), uint8(1), uint8(0), uint8(3))
	f.Add(int64(3), uint8(2), uint8(1), uint8(255))
	f.Add(int64(4), uint8(3), uint8(1), uint8(16))
	f.Add(int64(5), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, opRaw, kindRaw, densityRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		kind := []value.Kind{value.KindInt, value.KindString}[int(kindRaw)%2]
		tab := relation.NewTable(relation.MustSchema("fz", relation.Column{Name: "c", Type: kind}))
		nullEvery := rng.Intn(6) // 0 = no nulls
		dist := rng.Intn(4)
		var strPool []string
		for i := 0; i < 8; i++ {
			strPool = append(strPool, fmt.Sprintf("k%c%d", 'a'+rng.Intn(4), rng.Intn(20)))
		}
		for i := 0; i < n; i++ {
			var v value.Value
			if kind == value.KindInt {
				switch dist {
				case 0: // narrow range → FOR
					v = value.Int(int64(rng.Intn(100)))
				case 1: // monotone, wide → delta
					v = value.Int(int64(i)*9973 + int64(rng.Intn(5)))
				case 2: // extremes → raw (and wrapped-sum coverage)
					if rng.Intn(2) == 0 {
						v = value.Int(math.MinInt64 + int64(rng.Intn(1000)))
					} else {
						v = value.Int(math.MaxInt64 - int64(rng.Intn(1000)))
					}
				default:
					v = value.Int(int64(rng.Intn(20)) - 10)
				}
			} else {
				v = value.String(strPool[rng.Intn(len(strPool))])
			}
			if nullEvery > 0 && i%nullEvery == 0 {
				v = value.Null
			}
			tab.MustAppendRow(v)
		}
		page := encodeColumnPage(tab, 0)
		pv, err := parsePage(page, n)
		if err != nil {
			t.Fatal(err)
		}
		density := 1 + int(densityRaw)%7
		mask := make([]uint64, (n+63)/64)
		for r := 0; r < n; r++ {
			if rng.Intn(density) == 0 {
				mask[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		// Replicate foldPage's null clearing to pin the survivor count it
		// must reach, then fold the page.
		masked := mask
		if pv.nulls != nil {
			masked = append([]uint64(nil), mask...)
			clearNullBits(pv.nulls, masked)
		}
		pop := popcountMask(masked)
		var want block.AggState
		for r := 0; r < n; r++ {
			if mask[r>>6]>>(uint(r)&63)&1 == 0 || tab.IsNullAt(r, 0) {
				continue
			}
			if kind == value.KindInt {
				want.FoldInt(tab.Ints(0)[r])
			} else {
				want.FoldStr(tab.Strings(0)[r])
			}
		}
		if pop != int(want.Count) {
			t.Fatalf("null-cleared popcount %d, reference non-null survivors %d", pop, want.Count)
		}
		if pop == 0 {
			return // FoldBlock never reaches the kernels with an empty mask
		}
		sc := getScratch()
		defer putScratch(sc)
		op := []workload.AggOp{workload.AggSum, workload.AggMin, workload.AggMax}[int(opRaw)%3]
		if op == workload.AggSum && kind != value.KindInt {
			return
		}
		sts := make([]block.AggState, 1)
		if err := foldPage(page, op, kind, n, mask, popcountMask(mask), nil, sts, sc); err != nil {
			t.Fatal(err)
		}
		got := sts[0]
		switch {
		case op == workload.AggSum:
			if got.Sum != want.Sum || got.Count != want.Count {
				t.Fatalf("sum: got Sum=%d Count=%d want Sum=%d Count=%d", got.Sum, got.Count, want.Sum, want.Count)
			}
		case kind == value.KindString:
			if !got.Seen || (op == workload.AggMin && got.MinS != want.MinS) || (op == workload.AggMax && got.MaxS != want.MaxS) {
				t.Fatalf("%s: got %+v want MinS=%q MaxS=%q", op, got, want.MinS, want.MaxS)
			}
		default:
			if !got.Seen || (op == workload.AggMin && got.MinI != want.MinI) || (op == workload.AggMax && got.MaxI != want.MaxI) {
				t.Fatalf("%s: got %+v want MinI=%d MaxI=%d", op, got, want.MinI, want.MaxI)
			}
		}
	})
}

// popcountMask counts the set bits of a mask, one OnesCount64 per word.
func popcountMask(m []uint64) int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}
