// Package zonemap implements per-block zone maps: the min/max (per column)
// metadata cloud warehouses keep in memory to skip blocks during query
// execution (Fig. 1 of the paper). predicate.CompileRanges evaluates a
// query predicate against a zone map's Ranges with three-valued logic;
// TriFalse means the block can be skipped.
package zonemap

import (
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// ZoneMap summarizes the value ranges of one block of rows.
type ZoneMap struct {
	ranges predicate.Ranges
	rows   int
}

// Build computes the zone map for the given rows of t. The bounds leave
// NULL and NaN out — neither matches any filter — so a column whose values
// are all NULL or NaN in the block gets an Empty interval, any comparison
// over it evaluates to false and the block is skippable for such filters.
//
// It runs at every layout install, once per block and column, so it sweeps
// the table's typed vectors instead of boxing each cell into a value.Value.
func Build(t *relation.Table, rows []int32) *ZoneMap {
	schema := t.Schema()
	zm := &ZoneMap{ranges: make(predicate.Ranges, schema.NumColumns()), rows: len(rows)}
	for c := 0; c < schema.NumColumns(); c++ {
		col := schema.Column(c)
		var min, max value.Value
		var seen bool
		switch col.Type {
		case value.KindInt:
			lo, hi, ok := minMax(t.Ints(c), t.Nulls(c), rows)
			min, max, seen = value.Int(lo), value.Int(hi), ok
		case value.KindFloat:
			lo, hi, ok := minMax(t.Floats(c), t.Nulls(c), rows)
			min, max, seen = value.Float(lo), value.Float(hi), ok
		default:
			lo, hi, ok := minMax(t.Strings(c), t.Nulls(c), rows)
			min, max, seen = value.String(lo), value.String(hi), ok
		}
		if !seen {
			zm.ranges[col.Name] = predicate.Interval{Empty: true}
			continue
		}
		zm.ranges[col.Name] = predicate.NewInterval(min, max, true, true)
	}
	return zm
}

// minMax returns the bounds of vals over the rows neither NULL nor NaN,
// ok false when there is none. Like value.Compare it consults only < and
// >, so a bound moves exactly when the boxed comparison would move it (-0
// and +0 tie).
func minMax[T int64 | float64 | string](vals []T, nulls []bool, rows []int32) (min, max T, ok bool) {
	for _, r := range rows {
		v := vals[r]
		if nulls != nil && nulls[r] || v != v { // v != v: NaN
			continue
		}
		if !ok {
			min, max, ok = v, v, true
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, ok
}

// FromRanges reconstructs a zone map from previously computed per-column
// intervals and a row count. It is used by the persistent segment store to
// rebuild zone maps from a segment footer; ranges is adopted, not copied.
func FromRanges(ranges predicate.Ranges, rows int) *ZoneMap {
	return &ZoneMap{ranges: ranges, rows: rows}
}

// NumRows returns the number of rows summarized.
func (z *ZoneMap) NumRows() int { return z.rows }

// Ranges exposes the per-column intervals (shared, do not mutate).
func (z *ZoneMap) Ranges() predicate.Ranges { return z.ranges }

// Column returns the interval for one column.
func (z *ZoneMap) Column(name string) predicate.Interval { return z.ranges.Get(name) }
