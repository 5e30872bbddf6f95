package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/datagen"
	"mto/internal/predicate"
	"mto/internal/value"
)

// BenchmarkCompressedScan compares the two ways a selective filtered scan
// can run against the segment store, both with a cold (disabled) buffer
// pool so every iteration pays the real page reads:
//
//   - compressed: ScanBlock evaluates the predicate directly on the encoded
//     pages (dict code ranges, FOR-rebased literals) into a survivor mask;
//   - full-decode: the test-only full decoder (readBlockData) reads and
//     decodes every column of every block, then the predicate is evaluated
//     over the decoded vectors.
//
// The workload is the paper's motivating shape — a highly selective
// conjunctive filter touching 2 of 6 columns.
func BenchmarkCompressedScan(b *testing.B) {
	const nrows = 100_000
	tab := scanTable(b, nrows)
	groups := [][]int32{seqRows(nrows)}
	tl, err := block.NewTableLayout(tab, groups, 4096)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(b.TempDir(), 0, block.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetLayout("sc", tl); err != nil {
		b.Fatal(err)
	}
	nb := s.NumBlocks("sc")

	// ~2% of rows survive: 1 of 8 dict values and the top sixth of i_for.
	preds := []predicate.Predicate{predicate.NewAnd(
		predicate.NewComparison("s_dict", predicate.Eq, value.String("v03")),
		predicate.NewComparison("i_for", predicate.Gt, value.Int(250)),
	)}

	b.Run("compressed", func(b *testing.B) {
		scan := s.CompileScan("sc", preds)
		if scan == nil {
			b.Fatal("no scan for an installed table")
		}
		order, err := scan.RowOrder()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		set := make([]uint64, order.Words())
		masks := make([][]uint64, 1)
		survivors := 0
		for i := 0; i < b.N; i++ {
			clear(set)
			for id := 0; id < nb; id++ {
				masks[0] = order.Block(set, id)
				if _, err := scan.ScanBlock(id, masks); err != nil {
					b.Fatal(err)
				}
			}
			survivors = popcountMask(set)
		}
		b.ReportMetric(float64(survivors), "survivor-rows")
	})

	b.Run("full-decode", func(b *testing.B) {
		seg := s.state("sc").seg
		b.ReportAllocs()
		survivors := 0
		for i := 0; i < b.N; i++ {
			survivors = 0
			for id := 0; id < nb; id++ {
				bd, err := readBlockData(seg, id)
				if err != nil {
					b.Fatal(err)
				}
				// scanTable schema order: i_for, i_delta, i_raw, f, s_dict, s_raw.
				ifor, sd := &bd.Cols[0], &bd.Cols[4]
				for r := range bd.Block.Rows {
					if sd.Nulls != nil && sd.Nulls[r] || ifor.Nulls != nil && ifor.Nulls[r] {
						continue
					}
					if sd.Strs[r] == "v03" && ifor.Ints[r] > 250 {
						survivors++
					}
				}
			}
		}
		b.ReportMetric(float64(survivors), "survivor-rows")
	})
}

// BenchmarkScanBlock times one ScanBlock visit of a lineitem block (TPC-H
// SF 0.01, 1000-row blocks in generation order, RAM-held segment) under
// the lineitem filters of three templates, one program per alias: Q6 (two
// bands and a comparison), Q19 (three l_quantity bands under OR beside
// IN and =) and Q21 (l_receiptdate > l_commitdate on two of three
// aliases). One op is one block; decodes/block is Stats.ScanPageDecodes
// per visit.
func BenchmarkScanBlock(b *testing.B) {
	tab := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.01, Seed: 1}).Table("lineitem")
	tl, err := block.NewTableLayout(tab, [][]int32{seqRows(tab.NumRows())}, 1000)
	if err != nil {
		b.Fatal(err)
	}
	s := NewMemStore(block.DefaultCostModel())
	defer s.Close()
	if _, err := s.SetLayout("lineitem", tl); err != nil {
		b.Fatal(err)
	}
	nb := s.NumBlocks("lineitem")
	rng := rand.New(rand.NewSource(1))
	for _, template := range []int{6, 19, 21} {
		q := datagen.TPCHQuery(template, rng)
		var filters []predicate.Predicate
		for _, alias := range q.AliasesOf("lineitem") {
			filters = append(filters, q.FilterOn(alias))
		}
		b.Run(fmt.Sprintf("q%d", template), func(b *testing.B) {
			scan := s.CompileScan("lineitem", filters)
			order, err := scan.RowOrder()
			if err != nil {
				b.Fatal(err)
			}
			sets := make([][]uint64, len(filters))
			for i := range sets {
				sets[i] = make([]uint64, order.Words())
			}
			masks := make([][]uint64, len(filters))
			before := s.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f := range masks {
					masks[f] = order.Block(sets[f], i%nb)
					clear(masks[f])
				}
				if _, err := scan.ScanBlock(i%nb, masks); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Stats().Sub(before).ScanPageDecodes)/float64(b.N), "decodes/block")
		})
	}
}
