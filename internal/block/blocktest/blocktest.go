// Package blocktest holds what the tests of every package that installs,
// reorganizes or replays layouts share about a block.Backend.
package blocktest

import (
	"testing"

	"mto/internal/block"
)

// ReadLayout reads every block of table back through b — metered like any
// other read — and fails t unless the blocks partition the rows RowToBlock
// maps (the table's): each row in exactly one block, block i reporting ID
// i and a zone map over its row count, and RowToBlock agreeing. It returns
// the blocks indexed by ID.
func ReadLayout(t testing.TB, b block.Backend, table string) []*block.Block {
	t.Helper()
	rowToBlock, err := b.RowToBlock(table)
	if err != nil {
		t.Fatalf("%s: RowToBlock: %v", table, err)
	}
	nrows := len(rowToBlock)
	seen := make([]bool, nrows)
	blocks := make([]*block.Block, b.NumBlocks(table))
	for id := range blocks {
		blk, err := b.ReadBlock(table, id)
		if err != nil {
			t.Fatalf("%s: ReadBlock(%d): %v", table, id, err)
		}
		if blk.ID != id || blk.Zone.NumRows() != len(blk.Rows) {
			t.Fatalf("%s: block %d reports ID %d, %d rows, zone over %d", table, id, blk.ID, len(blk.Rows), blk.Zone.NumRows())
		}
		for _, r := range blk.Rows {
			if r < 0 || int(r) >= nrows || seen[r] {
				t.Fatalf("%s: block %d holds row %d: out of range or already in another block", table, id, r)
			}
			seen[r] = true
			if int(rowToBlock[r]) != id {
				t.Fatalf("%s: row %d is in block %d, RowToBlock says %d", table, r, id, rowToBlock[r])
			}
		}
		blocks[id] = blk
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("%s: row %d not assigned to any block", table, r)
		}
	}
	return blocks
}

// SimulatedIO keeps the counters the cost model charges — the ones that
// must not depend on pool warmth or worker timing, unlike the cache and
// readahead counters beside them.
func SimulatedIO(s block.Stats) block.Stats {
	return block.Stats{BlocksRead: s.BlocksRead, BlocksWritten: s.BlocksWritten,
		RowsRead: s.RowsRead, RowsWritten: s.RowsWritten}
}
