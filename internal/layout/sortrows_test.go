package layout_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mto/internal/datagen"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/value"
)

func identity(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// TestSortRowsNaNLast: a float column with every 50th value NaN (and a
// few NULLs) sorts NULL first, then every number ascending, then the NaNs
// in row order. A boxed value.Less sort, to which NaN ties with every
// number, leaves the numbers out of order.
func TestSortRowsNaNLast(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	tab := relation.NewTable(relation.MustSchema("F", relation.Column{Name: "f", Type: value.KindFloat}))
	for i := 0; i < n; i++ {
		switch {
		case i%50 == 0:
			tab.MustAppendRow(value.Float(math.NaN()))
		case i%97 == 0:
			tab.MustAppendRow(value.Null)
		default:
			tab.MustAppendRow(value.Float(rng.NormFloat64()))
		}
	}
	rows := identity(n)
	layout.SortRows(tab, rows, 0)
	vals, nulls := tab.Floats(0), tab.Nulls(0)
	stage, descents, lastNaN := 0, 0, int32(-1) // 0 NULLs, 1 numbers, 2 NaNs
	for k, r := range rows {
		switch {
		case nulls[r]:
			if stage > 0 {
				t.Fatalf("position %d: NULL row %d after a value", k, r)
			}
		case vals[r] != vals[r]:
			if r <= lastNaN {
				t.Fatalf("position %d: NaN rows out of row order (%d after %d)", k, r, lastNaN)
			}
			stage, lastNaN = 2, r
		default:
			if stage == 2 {
				t.Fatalf("position %d: number after a NaN", k)
			}
			if stage == 1 && vals[r] < vals[rows[k-1]] {
				descents++
			}
			stage = 1
		}
	}
	if descents != 0 {
		t.Errorf("%d descents among the sorted numbers", descents)
	}
}

// TestSortRowsMatchesBoxedOrder: on every column of the SSB, TPC-H and
// TPC-DS datasets (none holds a NaN) the typed sort orders rows exactly as
// the boxed value.Less stable sort it replaces.
func TestSortRowsMatchesBoxedOrder(t *testing.T) {
	sets := map[string]*relation.Dataset{
		"ssb":   datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.002, Seed: 1}),
		"tpch":  datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.002, Seed: 1}),
		"tpcds": datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: 0.002, Seed: 1}),
	}
	for name, ds := range sets {
		for _, table := range ds.TableNames() {
			tab := ds.Table(table)
			for ci := 0; ci < tab.Schema().NumColumns(); ci++ {
				want := identity(tab.NumRows())
				sort.SliceStable(want, func(i, j int) bool {
					return tab.Value(int(want[i]), ci).Less(tab.Value(int(want[j]), ci))
				})
				got := identity(tab.NumRows())
				layout.SortRows(tab, got, ci)
				for k := range got {
					if got[k] != want[k] {
						t.Errorf("%s.%s.%s: position %d holds row %d, the boxed sort row %d",
							name, table, tab.Schema().Column(ci).Name, k, got[k], want[k])
						break
					}
				}
			}
		}
	}
}
