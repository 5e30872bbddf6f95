package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// referenceGrouped folds the matrix row-at-a-time into per-slot states
// keyed on the global dictionary (slot 0 = NULL group, slot c+1 = code c)
// — the definition the compressed grouped fold must reproduce exactly.
func referenceGrouped(t *testing.T, tab *relation.Table, dict *relation.ColumnDict,
	aggs []workload.Aggregate, survivors []uint64) (rows []int64, sts [][]block.AggState) {

	t.Helper()
	slots := dict.NumCodes() + 1
	rows = make([]int64, slots)
	sts = make([][]block.AggState, len(aggs))
	cis := make([]int, len(aggs))
	for i, a := range aggs {
		sts[i] = make([]block.AggState, slots)
		cis[i] = -1
		if a.Column != "" {
			ci, ok := tab.Schema().ColumnIndex(a.Column)
			if !ok {
				t.Fatalf("no column %q", a.Column)
			}
			cis[i] = ci
		}
	}
	for r := 0; r < tab.NumRows(); r++ {
		if survivors[r>>6]>>(uint(r)&63)&1 == 0 {
			continue
		}
		slot := dict.Code(r) + 1 // -1 (null) → slot 0
		rows[slot]++
		for i := range aggs {
			st := &sts[i][slot]
			if cis[i] < 0 || tab.IsNullAt(r, cis[i]) {
				continue
			}
			switch v := tab.Value(r, cis[i]); v.Kind() {
			case value.KindInt:
				st.FoldInt(v.Int())
			case value.KindString:
				st.FoldStr(v.Str())
			default:
				st.Count++
			}
		}
	}
	return rows, sts
}

// TestCompressedGroupedAggregateMatchesReference extends the aggregation
// identity gate to grouped folds: for every groupable column (hence every
// group-page encoding, with and without nulls), every aggregate the
// compiler accepts must fold per dictionary slot to exactly the
// row-at-a-time reference, on single-block, out-of-order multi-block, and
// value-clustered layouts (the last exercising the min==max zone
// short-circuit, including its null/non-null split), with and without a
// cache, at every survivor selectivity.
func TestCompressedGroupedAggregateMatchesReference(t *testing.T) {
	tab := scanTable(t, 200)
	n := tab.NumRows()
	byDictValue := make([][]int32, 8)
	for i := 0; i < n; i++ {
		byDictValue[i%8] = append(byDictValue[i%8], int32(i))
	}
	layouts := map[string][][]int32{
		"single-block":  {seq32(0, n)},
		"two-blocks":    {seq32(n/2, n), seq32(0, n/2)},
		"interleaved":   interleavedGroups(n, 3),
		"by-dict-value": byDictValue, // one s_dict value per block → zone short-circuit
	}
	aggs := aggMatrix()
	masks := survivorMasks(n)
	kinds := map[string]value.Kind{}
	for i := 0; i < tab.Schema().NumColumns(); i++ {
		c := tab.Schema().Column(i)
		kinds[c.Name] = c.Type
	}
	groupCols := []string{"i_for", "i_delta", "i_raw", "s_dict", "s_raw"}
	dicts := map[string]*relation.ColumnDict{}
	for _, gcol := range groupCols {
		d, err := relation.BuildColumnDict(tab, gcol)
		if err != nil {
			t.Fatal(err)
		}
		dicts[gcol] = d
	}
	for name, groups := range layouts {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s-cache%d", name, cacheBytes), func(t *testing.T) {
				s := newScanStore(t, tab, groups, cacheBytes)
				for _, gcol := range groupCols {
					dict := dicts[gcol]
					ga := s.CompileFold("sc", block.GroupKey{Column: gcol, Dict: dict}, aggs)
					if ga == nil {
						t.Fatalf("CompileFold(group %s) returned nil", gcol)
					}
					sup := ga.Supported()
					for i, a := range aggs {
						if want := wantSupported(a); sup[i] != want {
							t.Errorf("%s by %s: supported=%v want %v", a, gcol, sup[i], want)
						}
					}
					for mname, surv := range masks {
						gs := block.NewGroupedStates(dict.NumCodes()+1, sup)
						for id := 0; id < s.NumBlocks("sc"); id++ {
							if err := foldRowMask(ga, id, surv, gs); err != nil {
								t.Fatal(err)
							}
						}
						wantRows, wantSts := referenceGrouped(t, tab, dict, aggs, surv)
						for slot := range wantRows {
							if gs.Rows[slot] != wantRows[slot] {
								t.Errorf("%s/%s slot %d: Rows=%d want %d",
									gcol, mname, slot, gs.Rows[slot], wantRows[slot])
							}
						}
						for i, a := range aggs {
							if !sup[i] || a.Column == "" { // COUNT(*) is gs.Rows, checked above
								continue
							}
							for slot := range wantRows {
								compareAgg(t, fmt.Sprintf("%s/%s/%s slot %d", gcol, mname, a, slot),
									a, kinds[a.Column], &gs.Aggs[i][slot], &wantSts[i][slot])
							}
						}
					}
				}
			})
		}
	}
}

// TestGroupedAggregateHighCardinalityGuard pins the dense-slot cutover: a
// group dictionary needing more than block.MaxGroupSlots slots declines
// every aggregate of the grouped fold (the engine then accumulates into a
// sparse map) and bumps the store's GroupedFoldsDeclined counter, while
// one at exactly the limit compiles and folds.
func TestGroupedAggregateHighCardinalityGuard(t *testing.T) {
	aggs := []workload.Aggregate{{Op: workload.AggCount, Alias: "sc"}}
	mkStore := func(distinct int) (*Store, *relation.ColumnDict) {
		tab := relation.NewTable(relation.MustSchema("sc",
			relation.Column{Name: "g", Type: value.KindInt}))
		for i := 0; i < distinct; i++ {
			tab.MustAppendRow(value.Int(int64(i)))
		}
		dict, err := relation.BuildColumnDict(tab, "g")
		if err != nil {
			t.Fatal(err)
		}
		if dict.NumCodes() != distinct {
			t.Fatalf("NumCodes=%d want %d", dict.NumCodes(), distinct)
		}
		return newScanStore(t, tab, [][]int32{seq32(0, distinct)}, 0), dict
	}

	// NumCodes+1 == MaxGroupSlots: compiles, folds, nothing declined.
	s, dict := mkStore(block.MaxGroupSlots - 1)
	declined := func(s *Store, group block.GroupKey) bool {
		f := s.CompileFold("sc", group, aggs)
		if f == nil {
			t.Fatal("CompileFold returned nil for a stored table")
		}
		return !f.Supported()[0]
	}
	ga := s.CompileFold("sc", block.GroupKey{Column: "g", Dict: dict}, aggs)
	if !ga.Supported()[0] {
		t.Fatal("at-limit dictionary declined")
	}
	surv := make([]uint64, (block.MaxGroupSlots+62)/64)
	for i := range surv {
		surv[i] = ^uint64(0)
	}
	gs := block.NewGroupedStates(dict.NumCodes()+1, ga.Supported())
	for id := 0; id < s.NumBlocks("sc"); id++ {
		if err := foldRowMask(ga, id, surv, gs); err != nil {
			t.Fatal(err)
		}
	}
	if gs.Rows[0] != 0 || gs.Rows[1] != 1 || gs.Rows[block.MaxGroupSlots-1] != 1 {
		t.Errorf("at-limit fold rows wrong: %v %v %v",
			gs.Rows[0], gs.Rows[1], gs.Rows[block.MaxGroupSlots-1])
	}
	if got := s.Stats().GroupedFoldsDeclined; got != 0 {
		t.Errorf("GroupedFoldsDeclined=%d want 0", got)
	}

	// One more distinct value: NumCodes+1 exceeds MaxGroupSlots → declined
	// and counted.
	s2, dict2 := mkStore(block.MaxGroupSlots)
	if !declined(s2, block.GroupKey{Column: "g", Dict: dict2}) {
		t.Error("over-limit dictionary accepted")
	}
	if got := s2.Stats().GroupedFoldsDeclined; got != 1 {
		t.Errorf("GroupedFoldsDeclined=%d want 1", got)
	}
	// Other decline reasons — missing column, kind mismatch, nil dict — do
	// not touch the cardinality counter.
	if !declined(s2, block.GroupKey{Column: "missing", Dict: dict2}) {
		t.Error("missing group column accepted")
	}
	strDict := &relation.ColumnDict{Kind: value.KindString}
	if !declined(s2, block.GroupKey{Column: "g", Dict: strDict}) {
		t.Error("kind-mismatched dictionary accepted")
	}
	if !declined(s2, block.GroupKey{Column: "g"}) {
		t.Error("nil dictionary accepted")
	}
	if got := s2.Stats().GroupedFoldsDeclined; got != 1 {
		t.Errorf("GroupedFoldsDeclined=%d want 1 after non-cardinality declines", got)
	}
}

// FuzzCompressedGroupedAggregate cross-checks the grouped fold — slot
// assignment per group-page encoding, the zone single-group short-circuit
// and its null split, scatter sums/extremes, null clearing — against the
// row-at-a-time per-slot reference on randomly generated two-column
// tables, mirroring FuzzCompressedAggregate, and then folds the same
// aggregates ungrouped through the same CompileFold entry.
func FuzzCompressedGroupedAggregate(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(128))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(3))
	f.Add(int64(3), uint8(2), uint8(0), uint8(1), uint8(255))
	f.Add(int64(4), uint8(3), uint8(1), uint8(1), uint8(16))
	f.Add(int64(5), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, opRaw, gkindRaw, kindRaw, densityRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		gkind := []value.Kind{value.KindInt, value.KindString}[int(gkindRaw)%2]
		kind := []value.Kind{value.KindInt, value.KindString}[int(kindRaw)%2]
		tab := relation.NewTable(relation.MustSchema("sc",
			relation.Column{Name: "g", Type: gkind},
			relation.Column{Name: "c", Type: kind},
		))
		// Group pool of 1 exercises the zone short-circuit; wide int pools
		// exercise rank lookups on FOR/delta/raw pages.
		poolN := 1 + rng.Intn(8)
		gNullEvery := rng.Intn(5) // 0 = no nulls
		cNullEvery := rng.Intn(5)
		gDist := rng.Intn(3)
		for i := 0; i < n; i++ {
			var gv value.Value
			if gkind == value.KindInt {
				switch gDist {
				case 0:
					gv = value.Int(int64(rng.Intn(poolN)))
				case 1: // wide spread → raw/delta group pages
					gv = value.Int(int64(rng.Intn(poolN)) * 1_000_003)
				default:
					gv = value.Int(int64(rng.Intn(poolN)) - 3)
				}
			} else {
				gv = value.String(fmt.Sprintf("g%02d", rng.Intn(poolN)))
			}
			if gNullEvery > 0 && i%gNullEvery == 0 {
				gv = value.Null
			}
			var cv value.Value
			if kind == value.KindInt {
				cv = value.Int(int64(rng.Intn(200)) - 100) // narrow → SUM stays supported
			} else {
				cv = value.String(fmt.Sprintf("k%c%d", 'a'+rng.Intn(4), rng.Intn(20)))
			}
			if cNullEvery > 0 && i%cNullEvery == 0 {
				cv = value.Null
			}
			tab.MustAppendRow(gv, cv)
		}
		dict, err := relation.BuildColumnDict(tab, "g")
		if err != nil {
			t.Fatal(err)
		}
		var op workload.AggOp
		if kind == value.KindInt {
			op = []workload.AggOp{workload.AggSum, workload.AggCount, workload.AggMin,
				workload.AggMax, workload.AggAvg}[int(opRaw)%5]
		} else {
			op = []workload.AggOp{workload.AggCount, workload.AggMin, workload.AggMax}[int(opRaw)%3]
		}
		aggs := []workload.Aggregate{
			{Op: workload.AggCount, Alias: "sc"},
			{Op: op, Alias: "sc", Column: "c"},
		}
		groups := [][]int32{seq32(0, n)}
		if n > 3 && rng.Intn(2) == 0 { // out-of-order two-block layout
			cut := 1 + rng.Intn(n-2)
			groups = [][]int32{seq32(cut, n), seq32(0, cut)}
		}
		s := newScanStore(t, tab, groups, 0)
		ga := s.CompileFold("sc", block.GroupKey{Column: "g", Dict: dict}, aggs)
		if ga == nil {
			t.Fatal("CompileFold returned nil")
		}
		sup := ga.Supported()
		if !sup[0] || !sup[1] {
			// Narrow int / string shapes are always supported; anything else
			// is a compile-rule regression.
			t.Fatalf("supported=%v for %s", sup, op)
		}
		density := 1 + int(densityRaw)%7
		surv := make([]uint64, (n+63)/64)
		for r := 0; r < n; r++ {
			if rng.Intn(density) == 0 {
				surv[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		gs := block.NewGroupedStates(dict.NumCodes()+1, sup)
		for id := 0; id < s.NumBlocks("sc"); id++ {
			if err := foldRowMask(ga, id, surv, gs); err != nil {
				t.Fatal(err)
			}
		}
		wantRows, wantSts := referenceGrouped(t, tab, dict, aggs, surv)
		for slot := range wantRows {
			if gs.Rows[slot] != wantRows[slot] {
				t.Fatalf("slot %d: Rows=%d want %d", slot, gs.Rows[slot], wantRows[slot])
			}
		}
		for slot := range wantRows {
			compareAgg(t, fmt.Sprintf("%s slot %d", aggs[1], slot), aggs[1],
				kind, &gs.Aggs[1][slot], &wantSts[1][slot])
		}
		// The same aggregates ungrouped: the zero GroupKey folds every
		// survivor into slot 0.
		flat := s.CompileFold("sc", block.GroupKey{}, aggs)
		fs := block.NewGroupedStates(1, flat.Supported())
		for id := 0; id < s.NumBlocks("sc"); id++ {
			if err := foldRowMask(flat, id, surv, fs); err != nil {
				t.Fatal(err)
			}
		}
		flatRows, flatWant := referenceAgg(t, tab, aggs[1], surv)
		if fs.Rows[0] != flatRows {
			t.Fatalf("ungrouped: Rows=%d want %d", fs.Rows[0], flatRows)
		}
		compareAgg(t, fmt.Sprintf("%s ungrouped", aggs[1]), aggs[1], kind, &fs.Aggs[1][0], &flatWant)
	})
}
