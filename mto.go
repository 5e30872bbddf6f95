// Package mto is an instance-optimized data layout framework for
// multi-table analytical datasets, reproducing "Instance-Optimized Data
// Layouts for Cloud Analytics Workloads" (Ding et al., SIGMOD 2021).
//
// Given a dataset (a set of columnar tables) and a query workload (joins +
// filter predicates), MTO learns one qd-tree per table that assigns records
// to storage blocks so that the workload's queries can skip as many blocks
// as possible. Its distinguishing idea is sideways information passing at
// layout time: filter predicates are pushed through equijoins as
// join-induced predicates and become candidate cuts for the joined tables'
// trees.
//
// The typical flow:
//
//	ds := mto.NewDataset()            // build tables, add rows
//	w := mto.NewWorkload(...)         // describe the expected queries
//	sys, err := mto.Open(ds, w, mto.Config{BlockSize: 500_000})
//	res, err := sys.Execute(query)    // res.BlocksRead, res.Seconds, ...
//
// A System owns the learned layout, a simulated block store with I/O
// accounting, and an execution engine with zone-map skipping. It also
// exposes the paper's adaptivity mechanisms: partial reorganization under
// workload shift (Reorganize) and incremental maintenance under inserts
// (Insert).
package mto

import (
	"fmt"
	"io"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/live"
	"mto/internal/predicate"
	"mto/internal/qdtree"
	"mto/internal/relation"
	"mto/internal/sqlparse"
	"mto/internal/value"
	"mto/internal/workload"
)

// Re-exported data-model types. These are the building blocks for datasets
// and workloads; see the examples/ directory for end-to-end usage.
type (
	// Value is a typed scalar (int, float, string, date, or null).
	Value = value.Value
	// Column describes one table attribute.
	Column = relation.Column
	// Schema is an ordered set of columns.
	Schema = relation.Schema
	// Table is an append-only columnar table.
	Table = relation.Table
	// Dataset is a named collection of tables.
	Dataset = relation.Dataset
	// Query is one structured query: table refs, join edges, filters.
	Query = workload.Query
	// TableRef is one table occurrence in a query.
	TableRef = workload.TableRef
	// Join is an equijoin edge.
	Join = workload.Join
	// JoinType enumerates inner/outer/semi/anti-semi joins.
	JoinType = workload.JoinType
	// Workload is an ordered multiset of queries.
	Workload = workload.Workload
	// Predicate is a filter predicate AST node.
	Predicate = predicate.Predicate
	// Op is a comparison operator.
	Op = predicate.Op
)

// Scalar constructors.
var (
	Int      = value.Int
	Float    = value.Float
	String   = value.String
	Date     = value.Date
	MustDate = value.MustDate
	Null     = value.Null
)

// Column kinds.
const (
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
)

// Comparison operators.
const (
	Eq = predicate.Eq
	Ne = predicate.Ne
	Lt = predicate.Lt
	Le = predicate.Le
	Gt = predicate.Gt
	Ge = predicate.Ge
)

// Join types.
const (
	InnerJoin         = workload.InnerJoin
	LeftOuterJoin     = workload.LeftOuterJoin
	RightOuterJoin    = workload.RightOuterJoin
	FullOuterJoin     = workload.FullOuterJoin
	SemiJoin          = workload.SemiJoin
	LeftAntiSemiJoin  = workload.LeftAntiSemiJoin
	RightAntiSemiJoin = workload.RightAntiSemiJoin
)

// Aggregate operators (Query.Aggregate). Aggregates ride along with a
// query's filters: the engine computes them over the rows that survive,
// and the segment store folds the ones it supports directly on encoded
// pages.
const (
	AggSum   = workload.AggSum
	AggCount = workload.AggCount
	AggMin   = workload.AggMin
	AggMax   = workload.AggMax
	AggAvg   = workload.AggAvg
)

// AggValue is one computed aggregate in Result.Aggregates.
type AggValue = engine.AggValue

// Dataset / schema / workload constructors.
var (
	NewDataset  = relation.NewDataset
	NewSchema   = relation.NewSchema
	MustSchema  = relation.MustSchema
	NewTable    = relation.NewTable
	NewQuery    = workload.NewQuery
	NewWorkload = workload.NewWorkload
)

// Predicate constructors.
var (
	Compare        = predicate.NewComparison
	In             = predicate.NewIn
	NotIn          = predicate.NewNotIn
	Like           = predicate.NewLike
	NotLike        = predicate.NewNotLike
	And            = predicate.NewAnd
	Or             = predicate.NewOr
	TruePredicate  = predicate.True
	FalsePredicate = predicate.False
)

// Between returns col >= lo AND col <= hi.
func Between(col string, lo, hi Value) Predicate {
	return And(Compare(col, Ge, lo), Compare(col, Le, hi))
}

// Config tunes layout learning and the simulated store.
type Config struct {
	// BlockSize is the target records per storage block. Required.
	BlockSize int
	// SampleRate optimizes on a uniform sample (§4.2); 0 or 1 disables.
	SampleRate float64
	// DisableJoinInduction turns MTO into STO (single-table qd-trees).
	DisableJoinInduction bool
	// MaxInductionDepth caps join-induced predicate paths (default 4).
	MaxInductionDepth int
	// LeafOrderKeys optionally orders records inside each qd-tree leaf by
	// a named column per table, keeping zone maps effective for range
	// filters within large leaves.
	LeafOrderKeys map[string]string
	// Seed drives sampling.
	Seed int64
	// Parallelism bounds the worker budget of offline optimization:
	// qd-tree construction (candidate precompute, cut scoring, subtree
	// recursion) and record routing. 0 selects GOMAXPROCS, 1 forces the
	// sequential paths; the learned layout is identical at any setting.
	Parallelism int
	// CostModel overrides the simulated I/O cost calibration.
	CostModel *block.CostModel
	// Store selects where the columnar segments live: "mem" (default)
	// keeps each table layout's encoded segment in memory; "disk" persists
	// it as a segment file under DataDir and reads pages back through a
	// buffer-pool cache. It is one store and one read path either way, so
	// Results are byte-identical.
	Store string
	// DataDir is the segment directory for Store "disk". Required then.
	DataDir string
	// CacheMB is the buffer-pool capacity for Store "disk", in MiB of
	// cached block data. 0 disables caching (every read hits disk).
	CacheMB int
}

// openStore constructs the configured segment store.
func openStore(cfg Config, cost block.CostModel) (*colstore.Store, error) {
	switch cfg.Store {
	case "", "mem":
		return colstore.NewMemStore(cost), nil
	case "disk":
		if cfg.DataDir == "" {
			return nil, fmt.Errorf(`mto: Store "disk" requires DataDir`)
		}
		return colstore.NewStore(cfg.DataDir, int64(cfg.CacheMB)<<20, cost)
	default:
		return nil, fmt.Errorf("mto: unknown Store %q (want \"mem\" or \"disk\")", cfg.Store)
	}
}

// System is a learned multi-table layout installed into a simulated block
// store, ready to execute queries with block skipping.
//
// A System is safe for concurrent Execute calls. A reorganization plans and
// stages its new layout while queries keep hitting the current one and
// takes the write lock only to swap it in (§5.1.1); Insert serializes with
// queries. One mutation runs at a time.
type System struct {
	in *live.Instance
}

// Open learns the layout for ds under w and installs it.
func Open(ds *Dataset, w *Workload, cfg Config) (*System, error) {
	opt, err := core.Optimize(ds, w, core.Options{
		BlockSize:         cfg.BlockSize,
		SampleRate:        cfg.SampleRate,
		JoinInduction:     !cfg.DisableJoinInduction,
		MaxInductionDepth: cfg.MaxInductionDepth,
		LeafOrderKeys:     cfg.LeafOrderKeys,
		Seed:              cfg.Seed,
		Parallelism:       cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return install(opt, ds, cfg)
}

// install routes ds through opt's layout into a freshly opened store of the
// configured kind and wraps the result as a System.
func install(opt *core.Optimizer, ds *Dataset, cfg Config) (*System, error) {
	design, err := opt.BuildDesign()
	if err != nil {
		return nil, err
	}
	cost := block.DefaultCostModel()
	if cfg.CostModel != nil {
		cost = *cfg.CostModel
	}
	store, err := openStore(cfg, cost)
	if err != nil {
		return nil, err
	}
	if _, err := design.Install(store, nil, 0); err != nil {
		store.Close()
		return nil, err
	}
	return &System{live.New(opt, design, store, ds, engine.CloudDWOptions(), nil)}, nil
}

// Close releases the storage backend: its readahead workers and, with
// Store "disk", the open segment files.
func (s *System) Close() error { return s.in.Close() }

// Result is one query's execution outcome.
type Result = engine.Result

// WorkloadResult aggregates a whole workload's execution: per-query
// results in input order plus workload-level totals.
type WorkloadResult = engine.WorkloadResult

// Execute runs q against the layout, skipping blocks via the per-table
// qd-trees and zone maps, and returns I/O metrics and simulated runtime.
func (s *System) Execute(q *Query) (*Result, error) { return s.in.Execute(q) }

// ExecuteWorkload replays the queries over a bounded worker pool
// (parallelism 0 selects GOMAXPROCS, 1 runs sequentially). Per-query
// results land in input order and every aggregate — including simulated
// Seconds — is identical to a sequential replay; only wall-clock time
// changes. Queries see one consistent layout: Insert and a
// reorganization's swap wait for the replay.
func (s *System) ExecuteWorkload(queries []*Query, parallelism int) (*WorkloadResult, error) {
	return s.in.ExecuteWorkload(queries, parallelism)
}

// Stats summarizes the learned qd-trees (cut counts, induction depths,
// memory — the paper's Table 2 quantities).
type Stats = qdtree.Stats

// Stats returns aggregate tree statistics.
func (s *System) Stats() Stats {
	s.in.RLock()
	defer s.in.RUnlock()
	return s.in.Optimizer().Stats()
}

// TreeDump renders one table's qd-tree as text.
func (s *System) TreeDump(table string) (string, error) {
	s.in.RLock()
	defer s.in.RUnlock()
	t := s.in.Optimizer().Tree(table)
	if t == nil {
		return "", fmt.Errorf("mto: no tree for table %q", table)
	}
	return t.Dump(), nil
}

// Timings reports offline optimization and record-routing times.
type Timings = core.Timings

// Timings returns the offline time breakdown.
func (s *System) Timings() Timings { return s.in.Optimizer().Timings() }

// TotalBlocks returns the number of blocks across all tables.
func (s *System) TotalBlocks() int { return s.in.Store().TotalBlocks() }

// IOStats returns cumulative simulated I/O counters.
func (s *System) IOStats() block.Stats { return s.in.Store().Stats() }

// ReorgOptions parameterizes the §5.1 reward function.
type ReorgOptions struct {
	// ExpectedQueries is q: how many queries from the observed
	// distribution are expected before the next workload shift.
	ExpectedQueries float64
	// WriteReadRatio is w (default 100).
	WriteReadRatio float64
}

// ReorgReport summarizes an applied (possibly partial) reorganization.
type ReorgReport struct {
	// FracDataReorganized is the fraction of records moved.
	FracDataReorganized float64
	// BlocksRewritten counts physical block writes.
	BlocksRewritten int
	// PlanSeconds is the wall-clock re-optimization time.
	PlanSeconds float64
	// SimWriteSeconds is the simulated cost of rewriting the blocks.
	SimWriteSeconds float64
}

// Reorganize adapts the layout to an observed (shifted) workload: it plans
// the max-reward set of qd-tree subtrees to rebuild (§5.1), stages the new
// layout beside the running queries, and swaps it in. A non-positive reward
// plan leaves the layout untouched.
func (s *System) Reorganize(observed *Workload, opts ReorgOptions) (ReorgReport, error) {
	done, err := s.ReorganizeAsync(observed, opts)
	if err != nil {
		return ReorgReport{}, err
	}
	r := <-done
	return r.Report, r.Err
}

// AsyncReorg is delivered when a background reorganization finishes.
type AsyncReorg struct {
	Report ReorgReport
	Err    error
}

// ReorganizeAsync is Reorganize in a goroutine (§5.1.1: "a separate process
// performs partial reorganization using a partial copy of the data; after
// reorganization completes, the new layout is swapped in"). One
// reorganization runs at a time, and Insert is rejected meanwhile (the
// staged layout would not hold its rows). The plan and the whole-table
// rewrite of its tables are staged against the live optimizer, design and
// store — reads only, so queries run beside them — and the instance commits
// them.
func (s *System) ReorganizeAsync(observed *Workload, opts ReorgOptions) (<-chan AsyncReorg, error) {
	run, err := s.in.Begin()
	if err != nil {
		return nil, err
	}
	done := make(chan AsyncReorg, 1)
	go func() {
		var r AsyncReorg
		var staged *core.StagedReorg
		r.Err = run(func() (*core.StagedReorg, error) {
			opt, design := s.in.Optimizer(), s.in.Design()
			plans, err := opt.PlanReorg(observed, core.ReorgConfig{Q: opts.ExpectedQueries, W: opts.WriteReadRatio}, design)
			if err != nil {
				return nil, err
			}
			for _, p := range plans {
				r.Report.PlanSeconds += p.PlanSeconds
			}
			staged, err = opt.StageReorg(plans, design, s.in.Store(), false)
			return staged, err
		})
		if staged != nil {
			r.Report.FracDataReorganized = staged.Stats.FracDataReorganized
			r.Report.BlocksRewritten = staged.Stats.BlocksRewritten
			r.Report.SimWriteSeconds = staged.Stats.SimSeconds
		}
		done <- r
	}()
	return done, nil
}

// InsertReport summarizes an absorbed insert (§5.2).
type InsertReport = core.ChangeStats

// Insert absorbs rows newly appended to the named base table: join-induced
// cuts with the table on their induction path are updated incrementally,
// and the new records are routed to blocks. rows are the indexes of the
// already-appended records.
func (s *System) Insert(table string, rows []int) (InsertReport, error) {
	return s.in.Insert(table, rows)
}

// Name reports "MTO" or "STO" depending on the configuration.
func (s *System) Name() string { return s.in.Optimizer().Name() }

// SaveLayout writes the learned layout (per-table qd-trees and optimizer
// options) to w as JSON. Literal join-induced key sets are not persisted —
// they are rebuilt against the dataset on load, so a saved layout stays
// valid across data changes.
func (s *System) SaveLayout(w io.Writer) error {
	s.in.RLock()
	defer s.in.RUnlock()
	return s.in.Optimizer().Save(w)
}

// OpenSaved reconstructs a System from a layout previously written by
// SaveLayout, re-evaluating join-induced cuts against ds and re-routing
// every record. w is the workload used for future Reorganize calls (it may
// be nil when reorganization is not needed).
func OpenSaved(r io.Reader, ds *Dataset, w *Workload, cfg Config) (*System, error) {
	opt, err := core.Load(r, ds, w)
	if err != nil {
		return nil, err
	}
	return install(opt, ds, cfg)
}

// ParseSQL parses one SQL SELECT statement into a Query. The supported
// subset covers the filter/join shapes that matter for layout: comma joins
// and explicit [INNER|LEFT|RIGHT] JOIN ... ON, comparisons, BETWEEN, IN
// lists, [NOT] LIKE, AND/OR/NOT, DATE 'yyyy-mm-dd' literals, and [NOT]
// IN / [NOT] EXISTS subqueries (mapped to semi / anti-semi joins). ds, when
// non-nil, resolves unqualified column names against table schemas.
func ParseSQL(sql string, ds *Dataset) (*Query, error) { return sqlparse.Parse(sql, ds) }

// ParseSQLWorkload parses several SQL statements into one workload with ids
// q1, q2, ...
func ParseSQLWorkload(ds *Dataset, sqls ...string) (*Workload, error) {
	return sqlparse.ParseWorkload(ds, sqls...)
}

// ReadCSV parses CSV (with a header row) into a table with the given
// schema; see Table.WriteCSV for the inverse. Empty fields are NULL and
// Date-flagged columns accept ISO dates.
func ReadCSV(schema *Schema, r io.Reader) (*Table, error) { return relation.ReadCSV(schema, r) }
