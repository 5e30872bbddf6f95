package block

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mto/internal/predicate"
	"mto/internal/workload"
	"mto/internal/zonemap"
)

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

// Stats accumulates simulated I/O counters plus — for the disk backend —
// real buffer-pool and page-I/O counters. All counters are monotonically
// increasing; use Snapshot/Sub to measure an interval. The in-memory
// backend leaves the cache counters at zero.
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	RowsRead      int64
	RowsWritten   int64

	// CacheHits/CacheMisses count the disk backend's block visits that
	// read nothing (every page they asked for was resident) and that ran
	// a page load; CacheEvictions counts whole block entries evicted.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// BytesRead counts the segment bytes of the pages actually read from
	// disk (frame + payload of the row-ID page and of the column pages a
	// visit named and the pool lacked); zone-map pruning never adds to it.
	BytesRead int64

	// Prefetched counts block loads (of the scan's pages) by the disk
	// backend's readahead workers ahead of demand; ReadaheadHits counts
	// demand reads that found (or joined the in-flight load of) a
	// prefetched block. Neither affects the simulated BlocksRead
	// accounting — readahead only overlaps real I/O with compute.
	Prefetched    int64
	ReadaheadHits int64

	// GroupedFoldsDeclined counts grouped fold compilations the disk
	// backend declined because the group column's dictionary exceeded
	// MaxGroupSlots — dense per-slot accumulators would blow memory, so
	// the engine accumulated into a sparse map over materialized rows.
	GroupedFoldsDeclined int64
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
	}
}

// Store is the simulated in-memory multi-table block store ("Cloud DW"
// stand-in). It owns one TableLayout per table and meters every block
// access. It is the "mem" implementation of Backend; internal/colstore
// provides the persistent "disk" one.
//
// A Store is safe for concurrent use. Layout lookups take a read lock and
// the I/O counters are atomics, so concurrent ReadBlock calls (the hot path
// of parallel workload execution) never serialize on a single mutex;
// layout-mutating operations (SetLayout, ReplaceBlocks) take the write
// lock and exclude readers.
type Store struct {
	mu      sync.RWMutex
	layouts map[string]*TableLayout
	cost    CostModel

	blocksRead    atomic.Int64
	blocksWritten atomic.Int64
	rowsRead      atomic.Int64
	rowsWritten   atomic.Int64
}

var _ Backend = (*Store)(nil)

// NewStore returns an empty store with the given cost model.
func NewStore(cost CostModel) *Store {
	return &Store{layouts: make(map[string]*TableLayout), cost: cost}
}

// Cost returns the store's cost model.
func (s *Store) Cost() CostModel { return s.cost }

// SetLayout installs (or replaces) a table's layout, metering the block
// writes. Replacing a layout is what physical reorganization does (§5.1.1);
// the write cost of the new blocks is charged to the caller via the
// returned seconds. The in-memory store cannot fail.
func (s *Store) SetLayout(table string, tl *TableLayout) (float64, error) {
	s.mu.Lock()
	s.layouts[table] = tl
	s.mu.Unlock()
	delta := InstallDelta(tl)
	s.blocksWritten.Add(delta.Blocks)
	s.rowsWritten.Add(delta.Rows)
	return delta.Seconds(s.cost), nil
}

// ReplaceBlocks swaps a subset of a table's blocks for new ones (partial
// reorganization). oldIDs are removed; newGroups are blocked at blockSize and
// appended. Block IDs are renumbered. Returns the simulated write seconds.
func (s *Store) ReplaceBlocks(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, ok := s.layouts[table]
	if !ok {
		return 0, fmt.Errorf("block: no layout for table %q", table)
	}
	blockRows := make([][]int32, len(tl.blocks))
	for i, b := range tl.blocks {
		blockRows[i] = b.Rows
	}
	replaced, delta, err := BuildReplacement(tl.table, blockRows, oldIDs, newGroups, blockSize)
	if err != nil {
		return 0, err
	}
	s.layouts[table] = replaced
	s.blocksWritten.Add(delta.Blocks)
	s.rowsWritten.Add(delta.Rows)
	return delta.Seconds(s.cost), nil
}

func maxGroupLen(groups [][]int32) int {
	m := 1
	for _, g := range groups {
		if len(g) > m {
			m = len(g)
		}
	}
	return m
}

// Layout returns the named table's layout, or nil.
func (s *Store) Layout(table string) *TableLayout {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.layouts[table]
}

// NumBlocks returns the named table's block count, or -1 when no layout is
// installed.
func (s *Store) NumBlocks(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tl, ok := s.layouts[table]
	if !ok {
		return -1
	}
	return len(tl.blocks)
}

// Zones returns the per-block zone maps of the named table, or nil when no
// layout is installed. Metadata only — no read is metered.
func (s *Store) Zones(table string) []*zonemap.ZoneMap {
	s.mu.RLock()
	tl := s.layouts[table]
	s.mu.RUnlock()
	if tl == nil {
		return nil
	}
	return tl.Zones()
}

// RowToBlock returns the table's row index → block ID mapping (an
// auxiliary-index read, not metered as block I/O).
func (s *Store) RowToBlock(table string) ([]int32, error) {
	s.mu.RLock()
	tl := s.layouts[table]
	s.mu.RUnlock()
	if tl == nil {
		return nil, fmt.Errorf("block: no layout for table %q", table)
	}
	m := make([]int32, tl.table.NumRows())
	for _, b := range tl.blocks {
		for _, r := range b.Rows {
			m[r] = int32(b.ID)
		}
	}
	return m, nil
}

// Tables returns the stored table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.layouts))
	for t := range s.layouts {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ReadBlock meters the read of one block and returns it.
func (s *Store) ReadBlock(table string, id int) (*Block, error) {
	s.mu.RLock()
	tl, ok := s.layouts[table]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("block: no layout for table %q", table)
	}
	if id < 0 || id >= len(tl.blocks) {
		return nil, fmt.Errorf("block: %s has no block %d", table, id)
	}
	b := tl.blocks[id]
	s.blocksRead.Add(1)
	s.rowsRead.Add(int64(len(b.Rows)))
	return b, nil
}

// memScan is the in-memory store's Scan. The store holds decoded base-table
// rows, not encoded pages, so it evaluates no filter itself: every filter
// is reported unsupported and the engine evaluates it over the base table.
// ScanBlock only meters the read and reports block membership.
type memScan struct {
	store     *Store
	table     string
	supported []bool // all false
}

// CompileScan returns a scan that supports none of the filters, or nil when
// the table has no layout.
func (s *Store) CompileScan(table string, filters []predicate.Predicate) Scan {
	if s.Layout(table) == nil {
		return nil
	}
	return &memScan{store: s, table: table, supported: make([]bool, len(filters))}
}

func (m *memScan) Supported() []bool { return m.supported }

// Prefetch is a no-op: every block is already resident.
func (m *memScan) Prefetch([]int) {}

// ScanBlock meters the read exactly like ReadBlock and returns the block's
// row IDs; masks are left untouched.
func (m *memScan) ScanBlock(id int, _ [][]uint64) ([]int32, error) {
	b, err := m.store.ReadBlock(m.table, id)
	if err != nil {
		return nil, err
	}
	return b.Rows, nil
}

// declinedFold is a Fold that supports no aggregate; the engine folds them
// all over the base table.
type declinedFold []bool

func (d declinedFold) Supported() []bool { return d }

func (declinedFold) FoldBlock(int, []uint64, *GroupedStates) error { return nil }

// CompileFold returns a fold that declines every aggregate, or nil when the
// table has no layout.
func (s *Store) CompileFold(table string, _ GroupKey, aggs []workload.Aggregate) Fold {
	if s.Layout(table) == nil {
		return nil
	}
	return make(declinedFold, len(aggs))
}

// TotalBlocks returns the number of blocks across the given tables (all
// tables when none specified).
func (s *Store) TotalBlocks(tables ...string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(tables) == 0 {
		for t := range s.layouts {
			tables = append(tables, t)
		}
	}
	n := 0
	for _, t := range tables {
		if tl := s.layouts[t]; tl != nil {
			n += len(tl.blocks)
		}
	}
	return n
}

// Stats returns a snapshot of the I/O counters. The cache counters stay
// zero: the in-memory store has no buffer pool.
func (s *Store) Stats() Stats {
	return Stats{
		BlocksRead:    s.blocksRead.Load(),
		BlocksWritten: s.blocksWritten.Load(),
		RowsRead:      s.rowsRead.Load(),
		RowsWritten:   s.rowsWritten.Load(),
	}
}

// StatsSnapshot is Stats under the uniform copy-on-read name shared with
// engine.Engine and colstore.Store, so the serving layer snapshots every
// meter through one method name. Each counter is loaded atomically; the
// returned value is a plain copy the caller owns.
func (s *Store) StatsSnapshot() Stats { return s.Stats() }
