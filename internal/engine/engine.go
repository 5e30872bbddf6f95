// Package engine is the simulated cloud analytics service ("Cloud DW" in
// the paper, §6.1.2). It executes structured queries over a block.Backend:
// per-table block sets come from the installed layout's router, zone maps
// skip irrelevant blocks, optional data-induced predicates (diPs, [22])
// prune blocks at plan time, and optional semi-join reduction prunes blocks
// and rows at execution time. A calibrated cost model turns I/O and tuple
// counts into simulated end-to-end seconds.
//
// The engine's result — per-alias surviving row counts under full semantic
// reduction — is a function of the data and the query only, never of the
// layout, which the test suite uses as a cross-layout correctness
// invariant. The one exception is an anti join's non-preserved side: its
// rows never reach the result (they only supply the key set — the very
// irrelevance that makes the side block-prunable per §4.1.1), so its count
// reflects whichever blocks the layout let the engine skip.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"mto/internal/block"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
)

// Options toggles the execution-time features whose presence the paper's
// experiments vary.
type Options struct {
	// SemiJoinReduction enables Cloud DW's runtime pruning: once a table
	// is materialized, its exact join keys prune the blocks of tables it
	// joins to (§6.1.2, §6.2.2).
	SemiJoinReduction bool
	// DiPs enables data-induced predicates: plan-time block pruning from
	// zone-map-derived range sets pushed across joins (§3.1.1, §6.1.3).
	DiPs bool
	// SecondaryIndexes maps table → join column carrying a secondary
	// index. When join keys for that column arrive from a materialized
	// neighbor, the engine reads only the blocks physically containing
	// matching rows, regardless of clustering — the SI comparison of
	// §6.3.1.
	SecondaryIndexes map[string]string
}

const (
	// rangeSetSize bounds the number of ranges in a diP (the paper uses 20).
	rangeSetSize = 20
	// maxReductionPasses caps the diP passes and the passes of a repeated
	// reduction schedule (sweepSchedule).
	maxReductionPasses = 8
)

// DefaultOptions mirrors the plain simulation setting (no runtime extras).
func DefaultOptions() Options { return Options{} }

// CloudDWOptions mirrors the commercial service: semi-join reduction on.
func CloudDWOptions() Options { return Options{SemiJoinReduction: true} }

// TableAccess reports the I/O for one base table of one query, with the
// per-stage pruning breakdown: how many candidate blocks survived layout
// routing, then zone-map skipping, then plan-time diPs, then runtime
// semi-join / secondary-index pruning. Each stage can only shrink the set.
type TableAccess struct {
	Table       string
	BlocksRead  int
	TotalBlocks int
	RowsScanned int

	// AfterRouting counts candidates the layout router returned.
	AfterRouting int
	// AfterZoneMap counts candidates surviving zone-map skipping.
	AfterZoneMap int
	// AfterDiPs counts candidates surviving plan-time diPs (equals
	// AfterZoneMap when diPs are off).
	AfterDiPs int
}

// Result is the outcome of executing one query.
type Result struct {
	Query string
	// PerTable maps base table → access stats.
	PerTable map[string]*TableAccess
	// BlocksRead is the total blocks read.
	BlocksRead int
	// TotalBlocks is the total number of blocks in the accessed base
	// tables (the denominator of the paper's "fraction of blocks" metric).
	TotalBlocks int
	// SurvivingRows maps alias → rows that participate in the query
	// result after all filters and join semantics. Layout-invariant.
	SurvivingRows map[string]int
	// Aggregates holds the query's computed aggregates in declaration
	// order (nil when the query requests none). Values are identical
	// whichever fold produced them — the backend's per-block fold or the
	// materialized bitmap fold — and, like SurvivingRows,
	// layout-invariant.
	Aggregates []AggValue
	// Seconds is the simulated end-to-end execution time.
	Seconds float64
}

// FractionOfBlocks returns BlocksRead / TotalBlocks (0 when no table).
func (r *Result) FractionOfBlocks() float64 {
	if r.TotalBlocks == 0 {
		return 0
	}
	return float64(r.BlocksRead) / float64(r.TotalBlocks)
}

// Engine executes queries against one installed design.
//
// An Engine is safe for concurrent Execute calls: all per-query state is
// local to a call, and the lazily built cross-query caches below are
// guarded by mu. RunWorkload exploits this to replay workloads in parallel.
type Engine struct {
	store  block.Backend
	design *layout.Design
	ds     *relation.Dataset
	opts   Options

	// Lazily built cross-query caches (see cached). mu guards the maps
	// only — entries are built outside it and immutable once stored, so
	// holders read them after releasing the lock. dicts and blockOf cache
	// failed builds as nil entries so a missing column or an unmappable
	// table is not retried on every query. dicts, xlate and cover depend
	// on the dataset only; codes, posts and groups are laid out by one
	// block.RowOrder, and a scan pinned to another layout replaces them
	// (cachedOn).
	mu      sync.Mutex
	blockOf map[string][]int32 // table → row → block ID (reference path)
	dicts   map[colKey]*relation.ColumnDict
	xlate   map[xlateKey][]int32            // from slot → to code, unless a shift (see xlateFor)
	cover   map[xlateKey]bool               // from's values all in to, no null (see covers)
	codes   map[colKey]onLayout[[]int32]    // position → dictionary code
	posts   map[colKey]onLayout[*postings]  // code → positions
	groups  map[colKey]onLayout[*slotLists] // (window, group slot) → (position, base row)

	// counters accumulates per-engine execution stats; see StatsSnapshot.
	counters engineCounters
}

// colKey names one column of one base table.
type colKey struct{ table, col string }

// xlateKey names the slot translation from one column's dictionary into
// another's.
type xlateKey struct{ from, to colKey }

// cached returns m[k], calling build outside the lock on a miss, so a slow
// build (a whole-column sort) never stalls other queries' lookups. An
// entry fresh rejects is a miss too, and the rebuilt one replaces it (nil
// fresh accepts every entry). Concurrent misses on one key may each build;
// the first fresh entry stored wins and every caller returns it.
func cached[K comparable, V any](mu *sync.Mutex, m map[K]V, k K, fresh func(V) bool, build func() V) V {
	mu.Lock()
	v, ok := m[k]
	mu.Unlock()
	if ok && (fresh == nil || fresh(v)) {
		return v
	}
	v = build()
	mu.Lock()
	defer mu.Unlock()
	if first, ok := m[k]; ok && (fresh == nil || fresh(first)) {
		return first
	}
	m[k] = v
	return v
}

// onLayout is a cache entry laid out by one block.RowOrder, fresh only for
// scans of that layout.
type onLayout[V any] struct {
	order *block.RowOrder
	v     V
}

// cachedOn is cached for entries laid out by order.
func cachedOn[V any](mu *sync.Mutex, m map[colKey]onLayout[V], k colKey, order *block.RowOrder, build func() V) V {
	return cached(mu, m, k, func(e onLayout[V]) bool { return e.order == order },
		func() onLayout[V] { return onLayout[V]{order: order, v: build()} }).v
}

// New returns an engine over the store/design pair.
func New(store block.Backend, design *layout.Design, ds *relation.Dataset, opts Options) *Engine {
	return &Engine{
		store: store, design: design, ds: ds, opts: opts,
		blockOf: map[string][]int32{},
		dicts:   map[colKey]*relation.ColumnDict{},
		xlate:   map[xlateKey][]int32{},
		cover:   map[xlateKey]bool{},
		codes:   map[colKey]onLayout[[]int32]{},
		posts:   map[colKey]onLayout[*postings]{},
		groups:  map[colKey]onLayout[*slotLists]{},
	}
}

// aliasState tracks one table reference during scalar (reference)
// execution.
type aliasState struct {
	alias  string
	table  string
	filter predicate.Predicate
	rows   []int32 // surviving row indexes (after scan + filters)
}

// tableState tracks one base table's block set during execution. Both the
// vectorized and the reference path stage candidates through it, so the
// per-stage accounting is computed identically.
type tableState struct {
	table      string
	candidates []int // block IDs still scheduled for reading
	read       bool
	rowsRead   int
	blocksRead int

	afterRouting, afterZoneMap, afterDiPs int
	order                                 *block.RowOrder // the kernel path's scan geometry
}

// Execute runs q and returns its metrics via the vectorized kernels.
// ExecuteReference is the retained scalar path; the two produce identical
// Results (pinned by the kernel identity tests).
func (e *Engine) Execute(q *workload.Query) (*Result, error) {
	res, err := e.executeKernel(q)
	e.counters.note(res, err)
	return res, err
}

// plan validates q, groups its base tables in first-reference order, and
// runs layout routing: each table's candidate set starts as the block IDs
// the installed design's router returns.
func (e *Engine) plan(q *workload.Query) (map[string]*tableState, []string, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	tables := map[string]*tableState{}
	var order []string
	for _, alias := range q.Aliases() {
		base := q.BaseTable(alias)
		if tables[base] != nil {
			continue
		}
		ids, ok := e.design.BlocksFor(q, base)
		if !ok {
			return nil, nil, fmt.Errorf("engine: query %s touches unknown table %q", q.ID, base)
		}
		if e.store.NumBlocks(base) < 0 {
			return nil, nil, errNoLayout(base)
		}
		tables[base] = &tableState{table: base, candidates: ids, afterRouting: len(ids)}
		order = append(order, base)
	}
	return tables, order, nil
}

// errNoLayout reports that the backend holds no layout for a table the
// query needs — at plan time, or because the layout vanished before the
// scan or fold compiled.
func errNoLayout(table string) error {
	return fmt.Errorf("engine: no layout installed for %q", table)
}

// matOrderOf returns the tables smallest-candidate-set-first, so semi-join
// reduction can use exact keys from already-read tables to prune later
// ones.
func matOrderOf(tables map[string]*tableState, order []string) []string {
	matOrder := append([]string(nil), order...)
	sort.Slice(matOrder, func(i, j int) bool {
		a, b := tables[matOrder[i]], tables[matOrder[j]]
		if len(a.candidates) != len(b.candidates) {
			return len(a.candidates) < len(b.candidates)
		}
		return a.table < b.table
	})
	return matOrder
}

// assemble folds the staged table metrics and join accounting into a
// Result. Both execution paths share it, so the floating-point additions
// happen in the same order and the simulated Seconds agree bit for bit.
func (e *Engine) assemble(q *workload.Query, order []string, tables map[string]*tableState,
	surviving map[string]int, joinProbes, reducers int) *Result {

	cost := e.store.Cost()
	res := &Result{
		Query:         q.ID,
		PerTable:      map[string]*TableAccess{},
		SurvivingRows: surviving,
		Seconds:       cost.QueryOverheadSeconds,
	}
	for _, name := range order {
		ts := tables[name]
		ta := &TableAccess{
			Table:        name,
			BlocksRead:   ts.blocksRead,
			TotalBlocks:  e.store.TotalBlocks(name),
			RowsScanned:  ts.rowsRead,
			AfterRouting: ts.afterRouting,
			AfterZoneMap: ts.afterZoneMap,
			AfterDiPs:    ts.afterDiPs,
		}
		res.PerTable[name] = ta
		res.BlocksRead += ta.BlocksRead
		res.TotalBlocks += ta.TotalBlocks
		res.Seconds += float64(ta.BlocksRead)*cost.BlockReadSeconds +
			float64(ta.RowsScanned)*cost.TupleScanSeconds
	}
	res.Seconds += float64(joinProbes)*cost.TupleJoinSeconds +
		float64(reducers)*cost.SemiJoinSetupSeconds
	return res
}
