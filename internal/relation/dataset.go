package relation

import (
	"fmt"
	"math/rand"
)

// Dataset is a named collection of tables — the unit MTO optimizes.
type Dataset struct {
	tables map[string]*Table
	order  []string
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return &Dataset{tables: make(map[string]*Table)} }

// AddTable registers a table under its schema name.
func (d *Dataset) AddTable(t *Table) error {
	name := t.Schema().Table()
	if _, dup := d.tables[name]; dup {
		return fmt.Errorf("relation: duplicate table %q", name)
	}
	d.tables[name] = t
	d.order = append(d.order, name)
	return nil
}

// MustAddTable is AddTable that panics on error.
func (d *Dataset) MustAddTable(t *Table) {
	if err := d.AddTable(t); err != nil {
		panic(err)
	}
}

// Table returns the named table, or nil if absent.
func (d *Dataset) Table(name string) *Table { return d.tables[name] }

// TableNames returns table names in insertion order.
func (d *Dataset) TableNames() []string { return append([]string(nil), d.order...) }

// NumRows returns the total row count across tables.
func (d *Dataset) NumRows() int {
	n := 0
	for _, t := range d.tables {
		n += t.NumRows()
	}
	return n
}

// Sample draws a uniform per-table sample at the given rate (§4.2). Tables
// with at most keepAllBelow rows are kept whole. The second return value maps
// each table to its sample-row → original-row indexes.
func (d *Dataset) Sample(rate float64, keepAllBelow int, rng *rand.Rand) (*Dataset, map[string][]int) {
	out := NewDataset()
	mapping := make(map[string][]int, len(d.order))
	for _, name := range d.order {
		s, rows := d.tables[name].Sample(rate, keepAllBelow, rng)
		out.MustAddTable(s)
		mapping[name] = rows
	}
	return out, mapping
}
