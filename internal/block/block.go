// Package block models the blocked storage layer of a cloud analytics
// service: each table's rows are assigned to large fixed-target-size blocks,
// each block carries a zone map, and all reads/writes go through a Backend
// that accounts for I/O — the quantity MTO minimizes. A block is the unit of
// I/O (§1 of the paper); records inside a block are only reachable by
// reading the whole block.
package block

import (
	"fmt"
	"math/rand"

	"mto/internal/relation"
	"mto/internal/zonemap"
)

// Block is one storage block of a single table.
type Block struct {
	// ID is unique within the table's layout.
	ID int
	// Rows holds the row indexes (into the base table) stored in the block.
	Rows []int32
	// Zone is the block's zone map.
	Zone *zonemap.ZoneMap
}

// NumRows returns the number of records in the block.
func (b *Block) NumRows() int { return len(b.Rows) }

// TableLayout is the set of blocks storing one table.
type TableLayout struct {
	table  *relation.Table
	blocks []*Block
}

// NewTableLayout builds a layout from row groups: each group is split into
// chunks of at most blockSize rows, and each chunk becomes a block with a
// freshly computed zone map. Groups typically come from a layout strategy
// (sorted runs, or qd-tree leaves). Empty groups are skipped.
func NewTableLayout(t *relation.Table, groups [][]int32, blockSize int) (*TableLayout, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("block: non-positive block size %d", blockSize)
	}
	return chop(t, groups, func() int { return blockSize })
}

// NewJitteredTableLayout is NewTableLayout with non-uniform block capacities
// emulating Cloud DW, whose blocks hold between ~10% and 100% of the target
// size depending on compression efficiency (§6.1.2). Capacities are drawn
// deterministically from rng in [minFill, 1] × blockSize.
func NewJitteredTableLayout(t *relation.Table, groups [][]int32, blockSize int, minFill float64, rng *rand.Rand) (*TableLayout, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("block: non-positive block size %d", blockSize)
	}
	if minFill <= 0 || minFill > 1 {
		return nil, fmt.Errorf("block: minFill %g out of (0, 1]", minFill)
	}
	return chop(t, groups, func() int {
		capFrac := minFill + rng.Float64()*(1-minFill)
		return max(int(capFrac*float64(blockSize)), 1)
	})
}

// chop splits each group into blocks in order, asking capacity for each
// block's row limit as the block starts.
func chop(t *relation.Table, groups [][]int32, capacity func() int) (*TableLayout, error) {
	tl := &TableLayout{table: t}
	total := 0
	for _, g := range groups {
		total += len(g)
		for off := 0; off < len(g); {
			end := min(off+capacity(), len(g))
			rows := g[off:end:end]
			tl.blocks = append(tl.blocks, &Block{
				ID:   len(tl.blocks),
				Rows: rows,
				Zone: zonemap.Build(t, rows),
			})
			off = end
		}
	}
	if total != t.NumRows() {
		return nil, fmt.Errorf("block: %s: groups cover %d rows, table has %d",
			t.Schema().Table(), total, t.NumRows())
	}
	return tl, nil
}

// Table returns the base table.
func (tl *TableLayout) Table() *relation.Table { return tl.table }

// NumBlocks returns the number of blocks.
func (tl *TableLayout) NumBlocks() int { return len(tl.blocks) }

// Block returns the i-th block.
func (tl *TableLayout) Block(i int) *Block { return tl.blocks[i] }

// Blocks returns all blocks (shared slice, do not mutate).
func (tl *TableLayout) Blocks() []*Block { return tl.blocks }

// Validate checks the layout invariant: every table row appears in exactly
// one block. It is used by tests and after reorganizations.
func (tl *TableLayout) Validate() error {
	seen := make([]bool, tl.table.NumRows())
	for _, b := range tl.blocks {
		for _, r := range b.Rows {
			if int(r) >= len(seen) {
				return fmt.Errorf("block %d references row %d beyond table size %d", b.ID, r, len(seen))
			}
			if seen[r] {
				return fmt.Errorf("row %d appears in multiple blocks", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("row %d not assigned to any block", r)
		}
	}
	return nil
}
