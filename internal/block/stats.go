package block

// CostModel converts I/O and compute events into simulated wall-clock
// seconds. The defaults are calibrated so that writing (compressing +
// re-writing) a block is ~100× the cost of reading one, matching the
// reorganization overhead ratio w=100 reported for the paper's evaluation
// system (§5.1.2).
type CostModel struct {
	// BlockReadSeconds is the simulated cost of reading one block from
	// cloud storage.
	BlockReadSeconds float64
	// BlockWriteSeconds is the simulated cost of compressing and writing
	// one block.
	BlockWriteSeconds float64
	// TupleJoinSeconds is the per-tuple cost of probing a hash join.
	TupleJoinSeconds float64
	// TupleScanSeconds is the per-tuple cost of scanning and filtering.
	TupleScanSeconds float64
	// SemiJoinSetupSeconds is the fixed cost of building one semi-join
	// reducer (bitmap) at execution time.
	SemiJoinSetupSeconds float64
	// QueryOverheadSeconds is the fixed per-query setup cost.
	QueryOverheadSeconds float64
}

// DefaultCostModel returns the calibration used across the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		BlockReadSeconds:     0.05,
		BlockWriteSeconds:    5.0, // 100× read, per §5.1.2
		TupleJoinSeconds:     25e-9,
		TupleScanSeconds:     4e-9,
		SemiJoinSetupSeconds: 0.01,
		QueryOverheadSeconds: 0.05,
	}
}

// Stats accumulates the simulated I/O counters (blocks and rows read and
// written — what the cost model charges) plus the store's real buffer-pool
// and page-I/O counters. All counters are monotonically increasing; use
// Sub to measure an interval.
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	RowsRead      int64
	RowsWritten   int64

	// CacheHits/CacheMisses count the block visits that read nothing (every
	// page they asked for was resident) and that ran a page load;
	// CacheEvictions counts whole block entries evicted.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// BytesRead counts the segment bytes of the pages actually read (frame
	// + payload of the column pages a visit named and the pool lacked, and
	// of the row-ID pages ReadBlock reads); zone-map pruning never adds to
	// it.
	BytesRead int64

	// Prefetched and ReadaheadHits are always zero: the store has no
	// readahead, and a block visit loads its own pages. They stay until the
	// benchmark harness stops reading them.
	Prefetched    int64
	ReadaheadHits int64

	// GroupedFoldsDeclined counts grouped fold compilations the store
	// declined because the group column's dictionary exceeded
	// MaxGroupSlots — the backend's per-block accumulator arrays would be
	// too wide — so the engine's row-order pass folded the aggregate over
	// the survivors, with one dense slot per dictionary code.
	GroupedFoldsDeclined int64

	// ScanLeaves counts the column leaves (comparisons, bands, IN, LIKE,
	// column pairs) block visits evaluated; ScanLeavesZoneDecided those of
	// them the block's zone map decided, which read no page body; and
	// ScanPageDecodes the page bodies visits unpacked or decoded — at most
	// one per touched column per visit, however many leaves and alias
	// programs read it.
	ScanLeaves            int64
	ScanLeavesZoneDecided int64
	ScanPageDecodes       int64
}

// Sub returns s - o, for measuring deltas between snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		BlocksRead:     s.BlocksRead - o.BlocksRead,
		BlocksWritten:  s.BlocksWritten - o.BlocksWritten,
		RowsRead:       s.RowsRead - o.RowsRead,
		RowsWritten:    s.RowsWritten - o.RowsWritten,
		CacheHits:      s.CacheHits - o.CacheHits,
		CacheMisses:    s.CacheMisses - o.CacheMisses,
		CacheEvictions: s.CacheEvictions - o.CacheEvictions,
		BytesRead:      s.BytesRead - o.BytesRead,
		Prefetched:     s.Prefetched - o.Prefetched,
		ReadaheadHits:  s.ReadaheadHits - o.ReadaheadHits,

		GroupedFoldsDeclined: s.GroupedFoldsDeclined - o.GroupedFoldsDeclined,

		ScanLeaves:            s.ScanLeaves - o.ScanLeaves,
		ScanLeavesZoneDecided: s.ScanLeavesZoneDecided - o.ScanLeavesZoneDecided,
		ScanPageDecodes:       s.ScanPageDecodes - o.ScanPageDecodes,
	}
}
