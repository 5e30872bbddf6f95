package colstore

import (
	"testing"

	"mto/internal/block"
	"mto/internal/datagen"
	"mto/internal/relation"
	"mto/internal/workload"
)

// BenchmarkCompressedGroupedAggregate compares the two ways a selective
// grouped SUM can run against the segment store — the TPC-H Q1 shape,
// SUM(l_quantity) GROUP BY l_returnflag over lineitem, with a warm buffer
// pool so the comparison isolates the fold itself:
//
//   - compressed: FoldBlock assigns per-survivor dictionary slots
//     (one sorted merge bridges each block dictionary into the global
//     one) and scatter-folds packed FOR quantities into dense per-slot
//     states, straight off the encoded pages;
//   - decode-fold: the test-only full decoder's vectors (readBlockData,
//     decoded once before timing), each survivor hashed into a per-group
//     accumulator map.
func BenchmarkCompressedGroupedAggregate(b *testing.B) {
	tab := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.05, Seed: 1}).Table("lineitem")
	nrows := tab.NumRows()
	tl, err := block.NewTableLayout(tab, [][]int32{seqRows(nrows)}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(b.TempDir(), 1<<30, block.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("lineitem", tl); err != nil {
		b.Fatal(err)
	}
	nb := s.NumBlocks("lineitem")
	dict, err := relation.BuildColumnDict(tab, "l_returnflag")
	if err != nil {
		b.Fatal(err)
	}
	slots := dict.NumCodes() + 1

	// ~6% of rows survive — the selective rollup shape where decoding the
	// group and measure columns dominates the fallback.
	survivors := make([]uint64, (nrows+63)/64)
	for r := 0; r < nrows; r += 17 {
		survivors[r>>6] |= 1 << (uint(r) & 63)
	}
	aggs := []workload.Aggregate{{Op: workload.AggSum, Alias: "l", Column: "l_quantity"}}

	var wantSums []int64
	b.Run("compressed", func(b *testing.B) {
		ga := s.CompileFold("lineitem", block.GroupKey{Column: "l_returnflag", Dict: dict}, aggs)
		if ga == nil || !ga.Supported()[0] {
			b.Fatal("grouped SUM(l_quantity) did not compile to a compressed fold")
		}
		order := mustRowOrder(b, s, "lineitem")
		set := positionSet(order, survivors)
		b.ReportAllocs()
		b.ResetTimer()
		var gs *block.GroupedStates
		for i := 0; i < b.N; i++ {
			gs = block.NewGroupedStates(slots, ga.Supported())
			for id := 0; id < nb; id++ {
				if err := ga.FoldBlock(id, order.Block(set, id), gs); err != nil {
					b.Fatal(err)
				}
			}
		}
		wantSums = make([]int64, slots)
		for slot := range wantSums {
			wantSums[slot] = gs.Aggs[0][slot].Sum
		}
		b.ReportMetric(float64(wantSums[1]), "sum0")
	})

	b.Run("decode-fold", func(b *testing.B) {
		qi, _ := tab.Schema().ColumnIndex("l_quantity")
		gi, _ := tab.Schema().ColumnIndex("l_returnflag")
		decoded := decodeAll(b, s, "lineitem")
		b.ReportAllocs()
		b.ResetTimer()
		var sums map[string]int64
		for i := 0; i < b.N; i++ {
			sums = make(map[string]int64, slots)
			for _, bd := range decoded {
				q, g := &bd.Cols[qi], &bd.Cols[gi]
				for k, r := range bd.Block.Rows {
					if survivors[r>>6]>>(uint(r)&63)&1 == 0 || q.Nulls != nil && q.Nulls[k] {
						continue
					}
					sums[g.Strs[k]] += q.Ints[k]
				}
			}
		}
		if wantSums != nil {
			for c := int32(0); int(c) < dict.NumCodes(); c++ {
				if got := sums[dict.Strs[c]]; got != wantSums[c+1] {
					b.Fatalf("group %q: decoded sum %d differs from compressed %d",
						dict.Strs[c], got, wantSums[c+1])
				}
			}
		}
	})
}
