package colstore

import (
	"math/bits"
	"testing"

	"mto/internal/block"
	"mto/internal/workload"
)

// BenchmarkCompressedAggregate compares the two ways a selective SUM can
// run against the segment store, with a warm buffer pool so the comparison
// isolates the fold itself (the engine charges the block read to the scan
// that produced the survivor bitmap, identically for both paths):
//
//   - materialize-fold: the pre-existing fallback — convert the survivor
//     bitmap to per-block selections, MaterializeRows the aggregated
//     column, fold the decoded vector row by row;
//   - compressed: FoldBlock folds frame·popcount + Σ packed deltas at
//     survivor positions straight off the encoded FOR page, allocating
//     nothing in steady state.
//
// The acceptance bar is ≥3× fewer ns/op and ≥10× fewer allocs/op on this
// selective FOR-packed SUM.
func BenchmarkCompressedAggregate(b *testing.B) {
	const nrows = 100_000
	tab := scanTable(b, nrows)
	tl, err := block.NewTableLayout(tab, [][]int32{seqRows(nrows)}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(b.TempDir(), 1<<30, block.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("sc", tl); err != nil {
		b.Fatal(err)
	}
	nb := s.NumBlocks("sc")

	// ~6% of rows survive — selective enough that the sparse packed-read
	// path fires, dense enough that every block contributes.
	survivors := make([]uint64, (nrows+63)/64)
	for r := 0; r < nrows; r += 17 {
		survivors[r>>6] |= 1 << (uint(r) & 63)
	}
	aggs := []workload.Aggregate{{Op: workload.AggSum, Alias: "sc", Column: "i_for"}}

	var wantSum int64
	b.Run("compressed", func(b *testing.B) {
		ca := s.CompileFold("sc", block.GroupKey{}, aggs)
		if ca == nil || !ca.Supported()[0] {
			b.Fatal("SUM(i_for) did not compile to a compressed fold")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gs := block.NewGroupedStates(1, ca.Supported())
			for id := 0; id < nb; id++ {
				if err := ca.FoldBlock(id, survivors, gs); err != nil {
					b.Fatal(err)
				}
			}
			wantSum = gs.Aggs[0][0].Sum
		}
		b.ReportMetric(float64(wantSum), "sum")
	})

	b.Run("materialize-fold", func(b *testing.B) {
		b.ReportAllocs()
		var sum int64
		sel := make([]int32, 0, 4096)
		for i := 0; i < b.N; i++ {
			var st block.AggState
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
				cols, err := s.MaterializeRows("sc", id, sel, []string{"i_for"})
				if err != nil {
					b.Fatal(err)
				}
				c := &cols[0]
				for k := range c.Ints {
					if c.Nulls != nil && c.Nulls[k] {
						continue
					}
					st.FoldInt(c.Ints[k])
				}
			}
			sum = st.Sum
		}
		b.ReportMetric(float64(sum), "sum")
		if wantSum != 0 && sum != wantSum {
			b.Fatalf("materialized sum %d differs from compressed %d", sum, wantSum)
		}
	})
}
