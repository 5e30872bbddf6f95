package layout

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mto/internal/relation"
	"mto/internal/value"
)

// SortKeys configures the user-tuned Baseline of §6.1.3: one sort column
// per table (e.g. lineitem by shipdate, dimensions by primary key).
type SortKeys map[string]string

// SortKeyDesign builds the Baseline layout: each table's rows are sorted by
// its configured column and stored contiguously; queries read every block
// and rely on zone maps for skipping. Tables missing from keys are kept in
// insertion order. Per-table sorts run on GOMAXPROCS workers; see
// SortKeyDesignParallel for an explicit budget.
func SortKeyDesign(ds *relation.Dataset, keys SortKeys, blockSize int) (*Design, error) {
	return SortKeyDesignParallel(ds, keys, blockSize, 0)
}

// SortKeyDesignParallel is SortKeyDesign with an explicit worker budget
// (<= 0 selects GOMAXPROCS, 1 builds sequentially). Tables sort
// independently, so the design is identical at any parallelism.
func SortKeyDesignParallel(ds *relation.Dataset, keys SortKeys, blockSize, parallelism int) (*Design, error) {
	d := NewDesign("Baseline", blockSize)
	names := ds.TableNames()
	sorted := make([][]int32, len(names))
	err := forEachTable(len(names), parallelism, func(i int) error {
		rows, err := sortedRows(ds.Table(names[i]), keys[names[i]])
		sorted[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		d.SetTable(ds.Table(name), [][]int32{sorted[i]}, nil)
	}
	return d, nil
}

// sortedRows returns t's row indexes ordered by the named column ("" keeps
// insertion order; see SortRows).
func sortedRows(t *relation.Table, col string) ([]int32, error) {
	rows := make([]int32, t.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	if col == "" {
		return rows, nil
	}
	ci, ok := t.Schema().ColumnIndex(col)
	if !ok {
		return nil, fmt.Errorf("layout: %s has no sort column %q", t.Schema().Table(), col)
	}
	SortRows(t, rows, ci)
	return rows, nil
}

// SortRows stably orders rows, indexes into t, by column ci: NULL first,
// then ascending values, a float NaN after every number (±0 tie). The sort
// is stable so repeated builds are identical, and it compares the
// column's typed values, boxing none.
func SortRows(t *relation.Table, rows []int32, ci int) {
	nulls := t.Nulls(ci)
	switch t.Schema().Column(ci).Type {
	case value.KindInt:
		sortRowsBy(rows, nulls, t.Ints(ci), cmp.Compare[int64])
	case value.KindFloat:
		sortRowsBy(rows, nulls, t.Floats(ci), compareNaNLast)
	case value.KindString:
		sortRowsBy(rows, nulls, t.Strings(ci), strings.Compare)
	}
}

func sortRowsBy[T any](rows []int32, nulls []bool, vals []T, compare func(a, b T) int) {
	slices.SortStableFunc(rows, func(a, b int32) int {
		if nulls != nil && (nulls[a] || nulls[b]) {
			return boolInt(!nulls[a]) - boolInt(!nulls[b])
		}
		return compare(vals[a], vals[b])
	})
}

// compareNaNLast orders floats ascending with NaN after every number.
func compareNaNLast(a, b float64) int {
	if a != a || b != b {
		return boolInt(a != a) - boolInt(b != b)
	}
	return cmp.Compare(a, b)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
