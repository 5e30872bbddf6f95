package relation_test

import (
	"testing"

	"mto/internal/datagen"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// TestIntervalDictMatchesSorted builds every int column of SSB, TPC-H and
// TPC-DS that qualifies for the interval form in both forms, and demands
// that they agree on codes, values, literal ranges and ranks, and that
// translations between them — interval↔interval, interval↔sorted and
// int↔float — equal the sorted forms'. Every TPC-H join-key column must
// take the interval form (at SF 0.02; at 0.005 the 50 suppliers need not
// name all 25 nations).
func TestIntervalDictMatchesSorted(t *testing.T) {
	for _, b := range []struct {
		name string
		ds   *relation.Dataset
		w    *workload.Workload
	}{
		{"SSB", datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.005, Seed: 1}), datagen.SSBWorkload(2)},
		{"TPC-H", datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.02, Seed: 1}), datagen.TPCHWorkload(1, 2)},
		{"TPC-DS", datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: 0.005, Seed: 1}), datagen.TPCDSWorkload(2)},
	} {
		type column struct {
			name             string
			interval, sorted *relation.ColumnDict
		}
		var ints []column
		var flt *relation.ColumnDict
		forms := map[string]bool{} // table.col → interval form
		for _, name := range b.ds.TableNames() {
			tbl := b.ds.Table(name)
			for ci := 0; ci < tbl.Schema().NumColumns(); ci++ {
				col := tbl.Schema().Column(ci)
				d, err := relation.BuildColumnDict(tbl, col.Name)
				if err != nil {
					continue
				}
				if col.Type == value.KindFloat && flt == nil {
					flt = d
				}
				if col.Type != value.KindInt {
					continue
				}
				_, ok := relation.IntervalShift(d, d) // shifts only between intervals
				forms[name+"."+col.Name] = ok
				if ok {
					ints = append(ints, column{name + "." + col.Name, d, relation.SortedIntDict(tbl, col.Name)})
				}
			}
		}
		if len(ints) == 0 {
			t.Fatalf("%s: no column takes the interval form", b.name)
		}
		for _, c := range ints {
			relation.CheckSameDict(t, b.name+" "+c.name, c.interval, c.sorted)
			if flt != nil {
				relation.CheckSameTranslation(t, c.name+" → float", c.interval, flt, c.sorted, flt)
				relation.CheckSameTranslation(t, "float → "+c.name, flt, c.interval, flt, c.sorted)
			}
		}
		// Translations between the columns every join of the workload
		// names, both ways, in every pairing of the two forms.
		keys := map[[2]string]bool{}
		for _, q := range b.w.Queries {
			for _, j := range q.Joins {
				l, r := q.BaseTable(j.Left)+"."+j.LeftColumn, q.BaseTable(j.Right)+"."+j.RightColumn
				keys[[2]string{l, r}], keys[[2]string{r, l}] = true, true
				if b.name == "TPC-H" && (!forms[l] || !forms[r]) {
					t.Errorf("TPC-H join %s = %s: interval forms %v, %v", l, r, forms[l], forms[r])
				}
			}
		}
		byName := map[string]column{}
		for _, c := range ints {
			byName[c.name] = c
		}
		for k := range keys {
			from, okF := byName[k[0]]
			to, okT := byName[k[1]]
			if !okF || !okT {
				continue
			}
			name := k[0] + " → " + k[1]
			relation.CheckSameTranslation(t, name, from.interval, to.interval, from.sorted, to.sorted)
			relation.CheckSameTranslation(t, name+" (to sorted)", from.interval, to.sorted, from.sorted, to.sorted)
			relation.CheckSameTranslation(t, name+" (from sorted)", from.sorted, to.interval, from.sorted, to.sorted)
		}
		t.Logf("%s: %d interval int columns, %d join pairs", b.name, len(ints), len(keys))
	}
}
