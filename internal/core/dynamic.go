package core

import (
	"fmt"
	"time"

	"mto/internal/block"
	"mto/internal/induce"
	"mto/internal/layout"
)

// ChangeStats reports the work done absorbing a data change (§5.2).
type ChangeStats struct {
	// CutsUpdated counts join-induced cuts whose literals changed.
	CutsUpdated int
	// CutUpdateSeconds is the wall-clock time spent updating them; while
	// cuts update, inserted records cannot be routed (the shaded window
	// of Fig. 14b).
	CutUpdateSeconds float64
	// RowsRouted counts the inserted records assigned to blocks.
	RowsRouted int
	// BlocksWritten and RowsWritten are what the store wrote: each
	// touched leaf's tail block, re-chopped with its stray rows and the
	// leaf's new rows.
	BlocksWritten, RowsWritten int
	// SimSeconds is the store's simulated cost of those writes.
	SimSeconds float64
}

// affectedCuts returns the distinct induced predicates across all trees
// whose induction path contains the changed table, in inducedCuts' order.
func (o *Optimizer) affectedCuts(table string) []*induce.Predicate {
	var out []*induce.Predicate
	for _, ip := range o.inducedCuts() {
		if ip.AffectedBy(table) {
			out = append(out, ip)
		}
	}
	return out
}

// ApplyInsert absorbs rows newly appended to the named table: StageInsert
// committed on the spot.
func (o *Optimizer) ApplyInsert(table string, newRows []int, design *layout.Design, store block.Backend) (ChangeStats, error) {
	s, err := o.StageInsert(table, newRows, design, store)
	if s == nil {
		return ChangeStats{}, err
	}
	_, err = commitStaged(s, nil)
	return s.Insert, err
}

// StageInsert stages the absorption of rows newly appended to the named
// table (§5.2) as a block replacement of that one table. The new records
// are routed through the table's qd-tree; the tail block of each leaf that
// receives some is retired and rewritten with its stray rows and the
// leaf's new rows, and every other block is kept. Commit then updates the
// join-induced cuts that have the table on their induction path by
// evaluating them on the new records only. Under referential integrity and
// the unique-source restriction no pre-existing record changes leaves, so
// only blocks that received new records are rewritten.
//
// newRows must be exactly the table's rows the layout does not hold yet,
// each once; design must be installed in store. A nil StagedReorg with a
// nil error means there is nothing to insert.
func (o *Optimizer) StageInsert(table string, newRows []int, design *layout.Design, store block.Backend) (*StagedReorg, error) {
	tbl, tree, gb := o.ds.Table(table), o.trees[table], design.GroupBlocks(table)
	if tbl == nil || tree == nil || gb == nil {
		return nil, fmt.Errorf("core: table %q has no installed optimized layout", table)
	}
	groups := design.Table(table).Groups()
	held := 0
	for _, g := range groups {
		held += len(g)
	}
	if fresh := tbl.NumRows() - held; len(newRows) != fresh {
		return nil, fmt.Errorf("core: insert into %q lists %d rows; the table has %d the layout does not hold", table, len(newRows), fresh)
	}
	seen := make([]bool, len(newRows))
	for _, r := range newRows {
		if r < held || r >= tbl.NumRows() || seen[r-held] {
			return nil, fmt.Errorf("core: insert into %q: row %d is not a new row of the table, or is listed twice", table, r)
		}
		seen[r-held] = true
	}
	if len(newRows) == 0 {
		return nil, nil
	}
	routed := tree.AssignRecordsParallel(tbl.SelectRows(newRows), o.opts.Parallelism)
	if len(routed) != len(groups) {
		return nil, fmt.Errorf("core: tree has %d leaves but design has %d groups", len(routed), len(groups))
	}
	st := stagedTable{tbl: tbl, tree: tree, groups: make([][]int32, len(groups)), inserted: newRows}
	tails := map[int]bool{}
	for li, g := range groups {
		st.groups[li] = g
		if len(routed[li]) == 0 {
			continue
		}
		if ids := gb[li]; len(ids) > 0 {
			tails[ids[len(ids)-1]] = true
		}
		grown := append(make([]int32, 0, len(g)+len(routed[li])), g...)
		for _, r := range routed[li] {
			grown = append(grown, int32(newRows[r]))
		}
		st.groups[li] = grown
	}
	s := &StagedReorg{o: o, design: design, store: store, partial: true}
	if err := s.prepareReplace(table, &st, finalSlots(tree.Root, nil), tails, gb); err != nil {
		return nil, err
	}
	s.tables = []stagedTable{st}
	return s, nil
}

// updateCuts applies change to every join-induced cut the named table's
// data change affects, timing the updates.
func (o *Optimizer) updateCuts(table string, change func(*induce.Predicate) error) (ChangeStats, error) {
	var stats ChangeStats
	start := time.Now()
	for _, ip := range o.affectedCuts(table) {
		if err := change(ip); err != nil {
			return stats, err
		}
		stats.CutsUpdated++
	}
	stats.CutUpdateSeconds = time.Since(start).Seconds()
	return stats, nil
}

// UpdateCutsForDelete incrementally removes deleted rows' contributions
// from every affected join-induced cut. It must be called while the rows
// are still present in the base table. The physical removal of the records
// from blocks is handled by the storage service's delta-store merge, which
// this simulation does not model (§5.2: "the physical change itself is
// handled transparently by the data analytics service").
func (o *Optimizer) UpdateCutsForDelete(table string, rows []int) (ChangeStats, error) {
	return o.updateCuts(table, func(ip *induce.Predicate) error {
		return ip.ApplyDelete(o.ds, table, rows)
	})
}
