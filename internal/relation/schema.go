// Package relation provides the columnar table substrate the optimizer and
// the simulated engine operate on: schemas, typed column vectors, multi-table
// datasets, uniform sampling (§4.2 of the paper), and selection.
package relation

import (
	"fmt"

	"mto/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type value.Kind
	// Date marks integer columns that hold days-since-epoch; it only
	// affects formatting, never comparison.
	Date bool
	// Unique marks columns known to hold distinct values (primary keys).
	// MTO only induces predicates through joins originating from unique
	// columns (§4.1.1), so layouts consult this flag.
	Unique bool
}

// Schema is an ordered set of named, typed columns for one table.
type Schema struct {
	table  string
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema. Column names must be unique within the table.
func NewSchema(table string, cols ...Column) (*Schema, error) {
	if table == "" {
		return nil, fmt.Errorf("relation: empty table name")
	}
	s := &Schema{table: table, cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: %s: column %d has empty name", table, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: %s: duplicate column %q", table, c.Name)
		}
		if c.Type == value.KindNull {
			return nil, fmt.Errorf("relation: %s.%s: null column type", table, c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static schemas.
func MustSchema(table string, cols ...Column) *Schema {
	s, err := NewSchema(table, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the table name.
func (s *Schema) Table() string { return s.table }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column descriptor.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// ColumnIndex returns the index of the named column.
func (s *Schema) ColumnIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Ordinal returns the index of the named column, -1 when s is nil or has
// no such column.
func (s *Schema) Ordinal(name string) int {
	if s != nil {
		if i, ok := s.byName[name]; ok {
			return i
		}
	}
	return -1
}

// Kind returns the named column's kind; ok is false when s has no such
// column.
func (s *Schema) Kind(name string) (kind value.Kind, ok bool) {
	if i := s.Ordinal(name); i >= 0 {
		return s.cols[i].Type, true
	}
	return value.KindNull, false
}

// MustColumnIndex is ColumnIndex that panics if the column is missing.
func (s *Schema) MustColumnIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("relation: %s has no column %q", s.table, name))
	}
	return i
}

// IsUnique reports whether the named column is declared unique.
func (s *Schema) IsUnique(name string) bool {
	i, ok := s.byName[name]
	return ok && s.cols[i].Unique
}
