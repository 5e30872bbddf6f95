package colstore

import (
	"math/bits"
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
//   - materialize-fold: the fallback the engine uses without pushdown —
//     convert the survivor bitmap to per-block selections, MaterializeRows
//     the aggregate and group columns, hash each decoded row into a
//     per-group accumulator map;
//   - compressed: FoldBlock assigns per-survivor dictionary slots
//     (one sorted merge bridges each block dictionary into the global
//     one) and scatter-folds packed FOR quantities into dense per-slot
//     states, straight off the encoded pages.
//
// The acceptance bar is ≥2× fewer ns/op and fewer allocs/op for the
// compressed grouped fold.
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
		b.ReportAllocs()
		var gs *block.GroupedStates
		for i := 0; i < b.N; i++ {
			gs = block.NewGroupedStates(slots, ga.Supported())
			for id := 0; id < nb; id++ {
				if err := ga.FoldBlock(id, survivors, gs); err != nil {
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

	b.Run("materialize-fold", func(b *testing.B) {
		b.ReportAllocs()
		var sums map[string]int64
		sel := make([]int32, 0, 4096)
		for i := 0; i < b.N; i++ {
			sums = make(map[string]int64, slots)
			for id := 0; id < nb; id++ {
				// Sequential layout: block id covers global rows
				// [start, start+4096), whole mask words (4096 % 64 == 0).
				start := id * 4096
				w1 := start/64 + 64
				if w1 > len(survivors) {
					w1 = len(survivors)
				}
				sel = sel[:0]
				for w := start / 64; w < w1; w++ {
					for word := survivors[w]; word != 0; word &= word - 1 {
						sel = append(sel, int32(w*64+bits.TrailingZeros64(word)-start))
					}
				}
				if len(sel) == 0 {
					continue
				}
				cols, err := s.MaterializeRows("lineitem", id, sel,
					[]string{"l_quantity", "l_returnflag"})
				if err != nil {
					b.Fatal(err)
				}
				q, g := &cols[0], &cols[1]
				for k := range q.Ints {
					if q.Nulls != nil && q.Nulls[k] {
						continue
					}
					sums[g.Strs[k]] += q.Ints[k]
				}
			}
		}
		if wantSums != nil {
			for c := int32(0); int(c) < dict.NumCodes(); c++ {
				if got := sums[dict.Strs[c]]; got != wantSums[c+1] {
					b.Fatalf("group %q: materialized sum %d differs from compressed %d",
						dict.Strs[c], got, wantSums[c+1])
				}
			}
		}
	})
}
