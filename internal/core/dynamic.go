package core

import (
	"fmt"
	"sort"
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
	// BlocksWritten counts the blocks rewritten by the delta merge.
	BlocksWritten int
	// SimSeconds is the simulated cost of the block rewrites.
	SimSeconds float64
}

// affectedCuts returns the distinct induced predicates across all trees
// whose induction path contains the changed table. Trees are visited in
// sorted table-name order so the update order (and hence which error
// surfaces first, and the CutsUpdated interleaving) is deterministic.
func (o *Optimizer) affectedCuts(table string) []*induce.Predicate {
	names := make([]string, 0, len(o.trees))
	for name := range o.trees {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[*induce.Predicate]bool{}
	var out []*induce.Predicate
	for _, name := range names {
		for _, ic := range o.trees[name].InducedCuts() {
			if !seen[ic.Ind] && ic.Ind.AffectedBy(table) {
				seen[ic.Ind] = true
				out = append(out, ic.Ind)
			}
		}
	}
	return out
}

// ApplyInsert absorbs rows newly appended to the named table. Join-induced
// cuts in other tables' trees that have the table on their induction path
// are updated incrementally, by evaluating them only on the inserted
// records (§5.2); the inserted records are then routed through the table's
// own qd-tree and merged into the layout. Under referential integrity and
// the unique-source restriction, no pre-existing record changes blocks —
// ApplyInsert relies on that invariant and only rewrites blocks that
// received new records.
//
// newRows are indexes into the (already-extended) base table; design must
// be installed in store.
func (o *Optimizer) ApplyInsert(table string, newRows []int, design *layout.Design, store block.Backend) (ChangeStats, error) {
	var stats ChangeStats
	tbl := o.ds.Table(table)
	if tbl == nil {
		return stats, fmt.Errorf("core: unknown table %q", table)
	}
	tree := o.trees[table]
	td := design.Table(table)
	if tree == nil || td == nil {
		return stats, fmt.Errorf("core: table %q has no optimized layout", table)
	}
	// An empty insert is a no-op: nothing to route, no cut literals change,
	// and no block is rewritten — skip the full re-install entirely.
	if len(newRows) == 0 {
		return stats, nil
	}

	// Update affected join-induced cuts in other tables' trees.
	start := time.Now()
	for _, ip := range o.affectedCuts(table) {
		if err := ip.ApplyInsert(o.ds, table, newRows); err != nil {
			return stats, err
		}
		stats.CutsUpdated++
	}
	stats.CutUpdateSeconds = time.Since(start).Seconds()

	// Route the inserted records through the table's tree.
	sub := tbl.SelectRows(newRows)
	subGroups := tree.AssignRecordsParallel(sub, o.opts.Parallelism)
	groups := td.Groups()
	if len(subGroups) != len(groups) {
		return stats, fmt.Errorf("core: tree has %d leaves but design has %d groups",
			len(subGroups), len(groups))
	}
	newGroups := make([][]int32, len(groups))
	touched := 0
	for li := range groups {
		newGroups[li] = groups[li]
		if len(subGroups[li]) == 0 {
			continue
		}
		touched++
		appended := make([]int32, 0, len(groups[li])+len(subGroups[li]))
		appended = append(appended, groups[li]...)
		for _, r := range subGroups[li] {
			appended = append(appended, int32(newRows[r]))
		}
		newGroups[li] = appended
	}
	stats.RowsRouted = len(newRows)
	stats.BlocksWritten = touched

	design.SetTable(tbl, newGroups, tree.Route)
	if _, err := design.Install(store, nil, 0); err != nil {
		return stats, err
	}
	stats.SimSeconds = float64(stats.BlocksWritten) * store.Cost().BlockWriteSeconds
	return stats, nil
}

// UpdateCutsForDelete incrementally removes deleted rows' contributions
// from every affected join-induced cut. It must be called while the rows
// are still present in the base table. The physical removal of the records
// from blocks is handled by the storage service's delta-store merge, which
// this simulation does not model (§5.2: "the physical change itself is
// handled transparently by the data analytics service").
func (o *Optimizer) UpdateCutsForDelete(table string, rows []int) (ChangeStats, error) {
	var stats ChangeStats
	start := time.Now()
	for _, ip := range o.affectedCuts(table) {
		if err := ip.ApplyDelete(o.ds, table, rows); err != nil {
			return stats, err
		}
		stats.CutsUpdated++
	}
	stats.CutUpdateSeconds = time.Since(start).Seconds()
	return stats, nil
}
