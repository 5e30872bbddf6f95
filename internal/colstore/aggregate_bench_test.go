package colstore

import (
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/workload"
)

// BenchmarkCompressedAggregate compares the two ways a selective SUM can
// run against the segment store, with a warm buffer pool so the comparison
// isolates the fold itself (the engine charges the block read to the scan
// that produced the survivor bitmap, identically for both paths):
//
//   - compressed: FoldBlock folds frame·popcount + Σ packed codes at
//     survivor positions straight off the encoded FOR page, allocating
//     nothing in steady state;
//   - decode-fold: the test-only full decoder's vector (readBlockData,
//     decoded once before timing, standing in for a warm decoded cache),
//     folded row by row at the survivor positions.
//
// compressed-permuted runs the compressed fold over a layout whose blocks
// hold a random permutation of the rows, so every block visit localizes
// the survivor bitmap row by row instead of copying words. Both compressed
// runs report ns/block.
func BenchmarkCompressedAggregate(b *testing.B) {
	const nrows = 100_000
	tab := scanTable(b, nrows)
	open := func(rows []int32) *Store {
		tl, err := block.NewTableLayout(tab, [][]int32{rows}, 4096)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewStore(b.TempDir(), 1<<30, block.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SetLayout("sc", tl); err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := open(seqRows(nrows))
	defer s.Close()
	perm := make([]int32, nrows)
	for i, r := range rand.New(rand.NewSource(1)).Perm(nrows) {
		perm[i] = int32(r)
	}
	permuted := open(perm)
	defer permuted.Close()
	nb := s.NumBlocks("sc")

	// ~6% of rows survive — selective enough that the sparse packed-read
	// path fires, dense enough that every block contributes.
	survivors := make([]uint64, (nrows+63)/64)
	for r := 0; r < nrows; r += 17 {
		survivors[r>>6] |= 1 << (uint(r) & 63)
	}
	aggs := []workload.Aggregate{{Op: workload.AggSum, Alias: "sc", Column: "i_for"}}

	var wantSum int64
	for _, c := range []struct {
		name  string
		store *Store
	}{{"compressed", s}, {"compressed-permuted", permuted}} {
		b.Run(c.name, func(b *testing.B) {
			ca := c.store.CompileFold("sc", block.GroupKey{}, aggs)
			if ca == nil || !ca.Supported()[0] {
				b.Fatal("SUM(i_for) did not compile to a compressed fold")
			}
			order := mustRowOrder(b, c.store, "sc")
			set := positionSet(order, survivors)
			b.ReportAllocs()
			b.ResetTimer()
			var sum int64
			for i := 0; i < b.N; i++ {
				gs := block.NewGroupedStates(1, ca.Supported())
				for id := 0; id < nb; id++ {
					if err := ca.FoldBlock(id, order.Block(set, id), gs); err != nil {
						b.Fatal(err)
					}
				}
				sum = gs.Aggs[0][0].Sum
			}
			b.ReportMetric(float64(sum), "sum")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nb), "ns/block")
			if wantSum != 0 && sum != wantSum {
				b.Fatalf("%s sum %d differs from the sequential layout's %d", c.name, sum, wantSum)
			}
			wantSum = sum
		})
	}

	b.Run("decode-fold", func(b *testing.B) {
		decoded := decodeAll(b, s, "sc")
		b.ReportAllocs()
		b.ResetTimer()
		var sum int64
		for i := 0; i < b.N; i++ {
			var st block.AggState
			for _, bd := range decoded {
				c := &bd.Cols[0] // i_for
				for k, r := range bd.Block.Rows {
					if survivors[r>>6]>>(uint(r)&63)&1 == 0 || c.Nulls != nil && c.Nulls[k] {
						continue
					}
					st.FoldInt(c.Ints[k])
				}
			}
			sum = st.Sum
		}
		b.ReportMetric(float64(sum), "sum")
		if wantSum != 0 && sum != wantSum {
			b.Fatalf("decoded sum %d differs from compressed %d", sum, wantSum)
		}
	})
}

// decodeAll fully decodes every block of table's current segment.
func decodeAll(b *testing.B, s *Store, table string) []*blockData {
	b.Helper()
	seg := s.state(table).seg
	out := make([]*blockData, seg.NumBlocks())
	for id := range out {
		bd, err := readBlockData(seg, id)
		if err != nil {
			b.Fatal(err)
		}
		out[id] = bd
	}
	return out
}
