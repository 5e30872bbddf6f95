package relation

import (
	"fmt"
	"math/rand"
	"slices"

	"mto/internal/value"
)

// columnVec stores one column's values in a typed slice. Exactly one of the
// slices is in use, matching the schema kind. nulls is nil when the column
// has no nulls.
type columnVec struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  []bool
}

func newColumnVec(kind value.Kind) *columnVec { return &columnVec{kind: kind} }

func (c *columnVec) lenRows() int {
	switch c.kind {
	case value.KindInt:
		return len(c.ints)
	case value.KindFloat:
		return len(c.floats)
	default:
		return len(c.strs)
	}
}

func (c *columnVec) append(v value.Value) error {
	if v.IsNull() {
		if c.nulls == nil {
			c.nulls = make([]bool, c.lenRows())
		}
		c.nulls = append(c.nulls, true)
		switch c.kind {
		case value.KindInt:
			c.ints = append(c.ints, 0)
		case value.KindFloat:
			c.floats = append(c.floats, 0)
		default:
			c.strs = append(c.strs, "")
		}
		return nil
	}
	if v.Kind() != c.kind {
		// Permit int→float widening for convenience.
		if c.kind == value.KindFloat && v.Kind() == value.KindInt {
			v = value.Float(float64(v.Int()))
		} else {
			return fmt.Errorf("relation: append %s value to %s column", v.Kind(), c.kind)
		}
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	switch c.kind {
	case value.KindInt:
		c.ints = append(c.ints, v.Int())
	case value.KindFloat:
		c.floats = append(c.floats, v.Float())
	default:
		c.strs = append(c.strs, v.Str())
	}
	return nil
}

func (c *columnVec) at(row int) value.Value {
	if c.nulls != nil && c.nulls[row] {
		return value.Null
	}
	switch c.kind {
	case value.KindInt:
		return value.Int(c.ints[row])
	case value.KindFloat:
		return value.Float(c.floats[row])
	default:
		return value.String(c.strs[row])
	}
}

// Table is an append-only columnar table.
type Table struct {
	schema *Schema
	cols   []*columnVec
	rows   int
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{schema: schema, cols: make([]*columnVec, schema.NumColumns())}
	for i := range t.cols {
		t.cols[i] = newColumnVec(schema.Column(i).Type)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// AppendRow appends one row. The number and kinds of values must match the
// schema (null is accepted in any column).
func (t *Table) AppendRow(vals ...value.Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("relation: %s: append %d values to %d columns",
			t.schema.Table(), len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].append(v); err != nil {
			return fmt.Errorf("%s.%s: %w", t.schema.Table(), t.schema.Column(i).Name, err)
		}
	}
	t.rows++
	return nil
}

// MustAppendRow is AppendRow that panics on error; for generators whose
// schemas are static.
func (t *Table) MustAppendRow(vals ...value.Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) value.Value { return t.cols[col].at(row) }

// ValueByName returns the value at row for the named column.
func (t *Table) ValueByName(row int, col string) value.Value {
	return t.cols[t.schema.MustColumnIndex(col)].at(row)
}

// Ints exposes the raw int64 vector of an integer column for hot loops.
// Callers must not mutate it, and must handle nulls via IsNullAt.
func (t *Table) Ints(col int) []int64 {
	if t.cols[col].kind != value.KindInt {
		panic(fmt.Sprintf("relation: Ints on %s column", t.cols[col].kind))
	}
	return t.cols[col].ints
}

// Floats exposes the raw float64 vector of a float column.
func (t *Table) Floats(col int) []float64 {
	if t.cols[col].kind != value.KindFloat {
		panic(fmt.Sprintf("relation: Floats on %s column", t.cols[col].kind))
	}
	return t.cols[col].floats
}

// Strings exposes the raw string vector of a string column.
func (t *Table) Strings(col int) []string {
	if t.cols[col].kind != value.KindString {
		panic(fmt.Sprintf("relation: Strings on %s column", t.cols[col].kind))
	}
	return t.cols[col].strs
}

// IsNullAt reports whether (row, col) is null.
func (t *Table) IsNullAt(row, col int) bool {
	n := t.cols[col].nulls
	return n != nil && n[row]
}

// Nulls exposes a column's null mask for hot loops, or nil when the column
// has no nulls. Callers must not mutate it.
func (t *Table) Nulls(col int) []bool { return t.cols[col].nulls }

// Gather returns a column vector's values at rows, in rows' order — or
// vals itself when rows is nil (every row). A nil vals (a null mask of a
// column without nulls) stays nil.
func Gather[T any](vals []T, rows []int32) []T {
	if rows == nil || vals == nil {
		return vals
	}
	out := make([]T, len(rows))
	for k, r := range rows {
		out[k] = vals[r]
	}
	return out
}

// Row materializes one row as values; convenient but allocates.
func (t *Table) Row(row int) []value.Value {
	out := make([]value.Value, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.at(row)
	}
	return out
}

// SelectRows returns a new table with the given row indexes, in order: a
// typed gather, one allocation per column vector. A column keeps a null
// mask only when a selected row is null.
func (t *Table) SelectRows(rows []int) *Table {
	out := &Table{schema: t.schema, cols: make([]*columnVec, len(t.cols)), rows: len(rows)}
	for ci, c := range t.cols {
		out.cols[ci] = &columnVec{kind: c.kind, ints: gather(c.ints, rows), floats: gather(c.floats, rows), strs: gather(c.strs, rows)}
		if nulls := gather(c.nulls, rows); slices.Contains(nulls, true) {
			out.cols[ci].nulls = nulls
		}
	}
	return out
}

// gather returns src at rows; a vector the column does not use stays nil.
func gather[T any](src []T, rows []int) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}

// Sample returns a uniform sample of the table: each row is kept with
// probability rate. Tables with at most keepAllBelow rows are returned whole,
// mirroring the paper's handling of small tables (§4.2). The returned mapping
// gives, for each sample row, its row index in the original table.
func (t *Table) Sample(rate float64, keepAllBelow int, rng *rand.Rand) (*Table, []int) {
	if rate >= 1 || t.rows <= keepAllBelow {
		rows := make([]int, t.rows)
		for i := range rows {
			rows[i] = i
		}
		return t, rows
	}
	var rows []int
	for i := 0; i < t.rows; i++ {
		if rng.Float64() < rate {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 && t.rows > 0 {
		rows = append(rows, rng.Intn(t.rows)) // never return an empty sample
	}
	return t.SelectRows(rows), rows
}

// AppendTable appends all rows of src (same schema object required).
func (t *Table) AppendTable(src *Table) error {
	if src.schema != t.schema && src.schema.Table() != t.schema.Table() {
		return fmt.Errorf("relation: append table %s to %s", src.schema.Table(), t.schema.Table())
	}
	for r := 0; r < src.rows; r++ {
		if err := t.AppendRow(src.Row(r)...); err != nil {
			return err
		}
	}
	return nil
}
