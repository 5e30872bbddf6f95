package block

import (
	"fmt"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
	"mto/internal/zonemap"
)

// Backend is the storage layer the execution engine and the layout
// installer run against. internal/colstore's segment store is the one
// production implementation — its segments live in files or in memory,
// behind the same code; the interface is the seam a test wraps to inject
// faults.
//
// The split between metadata and data access mirrors a cloud warehouse:
// NumBlocks, Zones, and TotalBlocks are served from in-memory metadata
// (the segment footers) and never touch block data, so zone-map pruning of
// a block costs no page I/O; ReadBlock and Scan.ScanBlock are the only
// metered data accesses.
//
// Queries execute through CompileScan and CompileFold. A scan evaluates
// every filter; a fold reports per aggregate what the backend folds itself
// (Fold.Supported), and the engine folds the rest over the base table, so
// how much a backend pushes down changes wall-clock time, never Results.
type Backend interface {
	// Cost returns the backend's cost model.
	Cost() CostModel
	// PrepareLayout stages tl as the table's next layout: encoded and
	// validated as a new columnar segment that no reader can see yet.
	PrepareLayout(table string, tl *TableLayout) (Prepared, error)
	// PrepareReplace stages the swap of a subset of a table's blocks for
	// new ones (partial reorganization): oldIDs are removed, newGroups are
	// blocked at blockSize and appended, block IDs are renumbered
	// (BuildReplacement).
	PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (Prepared, error)
	// NumBlocks returns the named table's block count, or -1 when no
	// layout is installed. Metadata only.
	NumBlocks(table string) int
	// Zones returns the per-block zone maps of the named table (indexed
	// by block ID), or nil when no layout is installed. Metadata only —
	// served from the segment footer without page I/O, preserving the
	// paper's skipping semantics. Callers must not mutate the slice.
	Zones(table string) []*zonemap.ZoneMap
	// ReadBlock meters the read of one block and returns its row IDs and
	// zone map; the segment store reads only the block's row-ID page for
	// it, through its buffer pool.
	ReadBlock(table string, id int) (*Block, error)
	// RowToBlock returns the table's row index → block ID mapping, used
	// by the reference path's secondary-index pruning and by
	// reorganization planning. It is an auxiliary-index read, not metered
	// as block I/O (at most the compact row-ID pages are read, counted in
	// Stats.BytesRead).
	RowToBlock(table string) ([]int32, error)
	// Tables returns the stored table names, sorted.
	Tables() []string
	// TotalBlocks returns the number of blocks across the given tables
	// (all tables when none specified). Metadata only.
	TotalBlocks(tables ...string) int
	// CompileScan compiles the filters for evaluation against the named
	// table, translating literals into the stored representation once per
	// (query, table). It takes every filter, and returns nil when the
	// table has no layout.
	CompileScan(table string, filters []predicate.Predicate) Scan
	// CompileFold compiles the aggregates for per-block folding against
	// the named table, keyed on group (zero = ungrouped). It returns nil
	// when the table has no layout. Support is decided per aggregate, once
	// per (query, table): a group column the backend cannot key dense
	// slots on (missing, float, kind-mismatched against the dictionary, or
	// wider than MaxGroupSlots) leaves every aggregate unsupported.
	CompileFold(table string, group GroupKey, aggs []workload.Aggregate) Fold
	// Stats returns a snapshot of the I/O and cache counters.
	Stats() Stats
}

// Prepared is a layout change a Backend has staged: the work that takes time
// — reading, encoding, validating — is done, beside running queries, and
// Commit is the only way a table's layout changes. Not for concurrent use.
type Prepared interface {
	// Commit publishes the staged layout as the table's current one,
	// metering its block writes, and returns the simulated write seconds.
	// It refuses, changing nothing, when the table's layout changed after
	// the prepare.
	Commit() (float64, error)
	// Abort discards the staged layout; a no-op after a successful Commit,
	// so callers may defer it.
	Abort()
}

// CommitNow commits a Prepare call's result on the spot — for installs
// with no query to keep running beside them.
func CommitNow(p Prepared, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	defer p.Abort()
	return p.Commit()
}

// Scan is one query's compiled scan over one table, pinned to the layout
// current at compile time. It is safe for concurrent use by parallel
// workers.
//
// Survivor sets are bitmaps over that layout's positions (RowOrder): a
// block's masks are its own words of each set, so a scan writes them in
// place and never scatters a row into base-row order.
type Scan interface {
	// RowOrder returns the position geometry of the layout the scan is
	// pinned to — built once per layout, never per query. Masks handed to
	// ScanBlock and survivors handed to the same layout's Fold.FoldBlock
	// are laid out by it.
	RowOrder() (*RowOrder, error)
	// ScanBlock meters the read of block id — charging BlocksRead and
	// RowsRead exactly like Backend.ReadBlock — and evaluates every
	// filter over the block into the corresponding mask: bit i of
	// masks[f] is set iff the block's i-th row matches filter f. Each
	// non-nil mask is the caller's zeroed RowOrder.Block sub-slice of a
	// position set, ⌈rows/64⌉ words; no bit at or beyond the block's row
	// count is ever set. masks is parallel to the CompileScan filters; nil
	// entries are skipped. It returns the block's row count.
	ScanBlock(id int, masks [][]uint64) (int, error)
	// Prefetch queues background loads of the given blocks into the
	// backend's cache (best-effort, bounded; the slice is copied). A
	// subsequent ScanBlock overlaps with or joins the in-flight load.
	Prefetch(ids []int)
}

// MaxGroupSlots bounds the dense per-slot accumulator arrays a grouped
// fold may allocate: slot 0 is the NULL group and slot c+1 is dictionary
// code c, so a group column may have at most MaxGroupSlots-1 distinct
// values. Folds over wider dictionaries are declined — counted in
// Stats.GroupedFoldsDeclined — and the caller folds over the base table
// instead.
const MaxGroupSlots = 1 << 14

// GroupKey names a fold's grouping column together with its global
// sorted-rank dictionary over the base table, which fixes the slot
// indexing every backend folds into. The zero GroupKey is the ungrouped
// fold: every survivor lands in the single slot 0.
type GroupKey struct {
	Column string
	Dict   *relation.ColumnDict
}

// Slots returns the number of accumulator slots a fold keyed on g writes:
// one without a dictionary, otherwise the NULL slot plus one per
// dictionary code.
func (g GroupKey) Slots() int {
	if g.Dict == nil {
		return 1
	}
	return g.Dict.NumCodes() + 1
}

// Fold is one query's compiled aggregate fold over one table. It is safe
// for concurrent use; the GroupedStates passed to FoldBlock are the
// caller's to serialize.
type Fold interface {
	// Supported reports, per aggregate (parallel to the CompileFold
	// input), whether FoldBlock folds it. The caller computes unsupported
	// aggregates over the base table.
	Supported() []bool
	// FoldBlock folds block id's rows that are set in local — the block's
	// own words of a position set (RowOrder.Block), bit i for its i-th
	// row, exactly as ScanBlock filled them — into gs: every survivor
	// increments gs.Rows at its group slot (group presence and COUNT(*)),
	// and each supported aggregate with a non-nil gs.Aggs entry
	// accumulates into its per-slot states. local is only read. Not
	// metered: the scan that built the survivors already charged the
	// block read.
	FoldBlock(id int, local []uint64, gs *GroupedStates) error
}

// GroupedStates is the accumulator of a fold. Slot indexing is fixed by
// the GroupKey: an ungrouped fold has the single slot 0; a grouped one
// has slot 0 for the NULL group and slot c+1 for dictionary code c
// (ascending value order, so iterating slots yields the deterministic
// output order). Rows counts survivors per slot regardless of any
// aggregate column's nulls; a group exists in a grouped query's output
// iff its Rows entry is non-zero. Aggs is parallel
// to the compiled aggregate list; nil entries are skipped by the fold
// (COUNT(*) reads Rows and needs no per-slot states).
type GroupedStates struct {
	Rows []int64
	Aggs [][]AggState
}

// NewGroupedStates returns zeroed grouped states with the given slot
// count; aggregate k gets per-slot AggStates only when want[k].
func NewGroupedStates(slots int, want []bool) *GroupedStates {
	gs := &GroupedStates{Rows: make([]int64, slots), Aggs: make([][]AggState, len(want))}
	for k, w := range want {
		if w {
			gs.Aggs[k] = make([]AggState, slots)
		}
	}
	return gs
}

// AggState is one aggregate's running fold in one group slot: backend
// per-block folds accumulate into it, the engine finalizes int and string
// results from it on either fold route, and FoldInt / FoldStr are the
// row-at-a-time fold of the tests' reference folds. Count is the number of
// non-null rows folded (the AVG denominator and the COUNT(col) result);
// COUNT(*) is not per-aggregate state — it reads GroupedStates.Rows. Sum
// must not be trusted unless the caller proved the total cannot overflow
// int64 or performed checked additions. MinS/MaxS retain decoded strings.
type AggState struct {
	Count int64
	Sum   int64
	MinI  int64
	MaxI  int64
	MinS  string
	MaxS  string
	Seen  bool
}

// FoldInt accumulates one non-null int row into every int-op field; the
// finalizer reads only the fields its operator needs.
func (s *AggState) FoldInt(v int64) {
	s.Count++
	s.Sum += v
	if !s.Seen || v < s.MinI {
		s.MinI = v
	}
	if !s.Seen || v > s.MaxI {
		s.MaxI = v
	}
	s.Seen = true
}

// FoldStr accumulates one non-null string row.
func (s *AggState) FoldStr(v string) {
	s.Count++
	if !s.Seen || v < s.MinS {
		s.MinS = v
	}
	if !s.Seen || v > s.MaxS {
		s.MaxS = v
	}
	s.Seen = true
}

// BuildReplacement computes the layout replacing a subset of a table's
// blocks (partial reorganization, §5.1.1) together with its write
// accounting: kept blocks carry over unchanged (renumbered), newGroups
// are chopped at blockSize and appended, and only the appended blocks and
// rows count as written (what Stats.BlocksWritten/RowsWritten and the
// simulated write time are charged). blockRows holds the current layout's
// per-block row sets indexed by block ID (the row-ID pages read back from
// the current segment).
func BuildReplacement(t *relation.Table, blockRows [][]int32, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (replaced *TableLayout, blocksWritten, rowsWritten int64, err error) {
	kept, keptRows := 0, 0
	var groups [][]int32
	for id, rows := range blockRows {
		if oldIDs[id] {
			continue
		}
		kept++
		keptRows += len(rows)
		groups = append(groups, rows)
	}
	var newRows int
	for _, g := range newGroups {
		newRows += len(g)
		for off := 0; off < len(g); off += blockSize {
			end := off + blockSize
			if end > len(g) {
				end = len(g)
			}
			groups = append(groups, g[off:end:end])
		}
	}
	if keptRows+newRows != t.NumRows() {
		return nil, 0, 0, fmt.Errorf("block: %s: replacement covers %d rows, table has %d",
			t.Schema().Table(), keptRows+newRows, t.NumRows())
	}
	maxLen := 1
	for _, g := range groups {
		if len(g) > maxLen {
			maxLen = len(g)
		}
	}
	replaced, err = NewTableLayout(t, groups, maxLen)
	if err != nil {
		return nil, 0, 0, err
	}
	return replaced, int64(replaced.NumBlocks() - kept), int64(newRows), nil
}
