// Package core implements MTO, the multi-table layout optimizer (§3–§5 of
// the paper). Offline, it learns one qd-tree per table from a dataset and a
// join-query workload, passing simple predicates through joins as
// join-induced predicates (§3.2.1); online, the per-table trees route
// queries to the block subsets they must read (§3.2.2). The package also
// implements the single-table ablation STO (MTO without join induction,
// §6.1.3), partial reorganization under workload shift (§5.1), and
// incremental maintenance under data changes (§5.2).
package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"mto/internal/induce"
	"mto/internal/joingraph"
	"mto/internal/layout"
	"mto/internal/qdtree"
	"mto/internal/relation"
	"mto/internal/workload"
)

// Options configures offline optimization.
type Options struct {
	// BlockSize is the target rows per block, in full-data terms.
	BlockSize int
	// SampleRate is the uniform per-table sampling rate s (§4.2);
	// 1 disables sampling.
	SampleRate float64
	// KeepWholeBelow keeps tables with at most this many rows unsampled
	// (the paper keeps tables under ~1K rows whole). Default 1000.
	KeepWholeBelow int
	// MaxInductionDepth caps induction path length. Default 4 (the
	// deepest the paper observes on TPC-H, Table 2).
	MaxInductionDepth int
	// JoinInduction distinguishes MTO (true) from STO (false).
	JoinInduction bool
	// DisableCA turns off cardinality adjustment (Fig. 13a ablation).
	DisableCA bool
	// DisableUniqueRestriction lifts the unique-source-column policy of
	// §4.1.1 (ablation).
	DisableUniqueRestriction bool
	// LeafOrderKeys optionally names, per table, a column to order records
	// by *within* each qd-tree leaf. The tree fixes which block group a
	// record belongs to; the intra-leaf order is otherwise arbitrary, so
	// ordering by the table's natural sort key (e.g. a date) keeps zone
	// maps effective for range filters inside large leaves.
	LeafOrderKeys map[string]string
	// Parallelism bounds the worker budget of the offline phases: each
	// table's qd-tree build fans candidate precompute, cut scoring, and
	// subtree recursion across it, and record routing splits each table
	// into row chunks. <= 0 selects GOMAXPROCS, 1 forces the sequential
	// paths. The learned layout is byte-identical at any setting.
	Parallelism int
	// Seed drives sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.KeepWholeBelow == 0 {
		o.KeepWholeBelow = 1000
	}
	if o.MaxInductionDepth == 0 {
		o.MaxInductionDepth = 4
	}
	if o.SampleRate == 0 {
		o.SampleRate = 1
	}
	return o
}

func (o Options) validate() error {
	if o.BlockSize <= 0 {
		return fmt.Errorf("core: non-positive block size %d", o.BlockSize)
	}
	if o.SampleRate <= 0 || o.SampleRate > 1 {
		return fmt.Errorf("core: sample rate %g out of (0, 1]", o.SampleRate)
	}
	return nil
}

// Timings breaks down where offline time went (Table 3).
type Timings struct {
	// OptimizeSeconds covers sampling, candidate generation, literal-cut
	// evaluation on the sample, and tree construction.
	OptimizeSeconds float64
	// RoutingSeconds covers re-evaluating chosen literal cuts on the full
	// data and assigning every record to a block.
	RoutingSeconds float64
}

// Optimizer is a learned multi-table layout: one qd-tree per table.
type Optimizer struct {
	opts    Options
	ds      *relation.Dataset
	w       *workload.Workload
	trees   map[string]*qdtree.Tree
	unique  joingraph.UniqueFn
	timings Timings
}

// UniqueFromDataset derives the unique-column oracle from schema metadata.
func UniqueFromDataset(ds *relation.Dataset) joingraph.UniqueFn {
	return func(table, column string) bool {
		t := ds.Table(table)
		return t != nil && t.Schema().IsUnique(column)
	}
}

// newOptimizer returns an optimizer over ds with no trees yet.
func newOptimizer(ds *relation.Dataset, w *workload.Workload, opts Options) *Optimizer {
	o := &Optimizer{opts: opts, ds: ds, w: w, trees: map[string]*qdtree.Tree{}, unique: UniqueFromDataset(ds)}
	if opts.DisableUniqueRestriction {
		o.unique = joingraph.AllowAll
	}
	return o
}

// Optimize learns the layout for ds under w (§3.2.1). The returned
// Optimizer's induced cuts are already re-evaluated against the full
// dataset, so records can be routed immediately.
func Optimize(ds *relation.Dataset, w *workload.Workload, opts Options) (*Optimizer, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	o := newOptimizer(ds, w, opts)

	start := time.Now()
	// Sample the dataset (§4.2).
	rng := rand.New(rand.NewSource(opts.Seed))
	buildDS := ds
	if opts.SampleRate < 1 {
		buildDS, _ = ds.Sample(opts.SampleRate, opts.KeepWholeBelow, rng)
	}

	// Step 1a: simple predicates per table.
	simple := workload.SimplePredicates(w)

	// Steps 1b–1c: join-induced predicates, evaluated on the sample through
	// the batched evaluator: one pass per distinct source scan, shared hop
	// prefixes, and a worker pool bounded by Parallelism.
	var inducedByTable map[string][]*induce.Predicate
	if opts.JoinInduction {
		inducedByTable = induce.FromWorkload(w, o.unique, opts.MaxInductionDepth)
		if err := induce.EvaluateAll(buildDS, flattenInduced(inducedByTable), opts.Parallelism); err != nil {
			return nil, err
		}
		for _, ips := range inducedByTable {
			for _, ip := range ips {
				// Per-hop CA rates: a hop only thins the literal if its
				// scanned table was actually sampled (small tables are
				// kept whole, §4.2).
				rates := make([]float64, len(ip.Path.Hops))
				for i, h := range ip.Path.Hops {
					rates[i] = 1
					bt, ft := buildDS.Table(h.FromTable), ds.Table(h.FromTable)
					if bt != nil && ft != nil && bt.NumRows() < ft.NumRows() {
						rates[i] = opts.SampleRate
					}
				}
				ip.HopRates = rates
			}
		}
	}

	// Step 2: one qd-tree per table. Tables are independent (their
	// candidate cuts are already materialized), so they build in parallel —
	// behind a semaphore sized by Parallelism, so the knob caps how many
	// table builds run at once instead of fanning out one goroutine per
	// table unconditionally.
	names := ds.TableNames()
	trees, errs := make([]*qdtree.Tree, len(names)), make([]error, len(names))
	var wg sync.WaitGroup
	sem := make(chan struct{}, effectiveParallelism(opts.Parallelism))
	for i, name := range names {
		var cuts []qdtree.Cut
		for _, p := range simple[name] {
			cuts = append(cuts, qdtree.NewSimpleCut(p))
		}
		for _, ip := range inducedByTable[name] {
			cuts = append(cuts, qdtree.NewInducedCut(ip))
		}
		// Per-table effective sample rate: tables kept whole build at
		// rate 1 so their row counts are not inflated.
		rate := opts.SampleRate
		if buildDS.Table(name).NumRows() == ds.Table(name).NumRows() {
			rate = 1
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string, cuts []qdtree.Cut, rate float64) {
			defer wg.Done()
			defer func() { <-sem }()
			trees[i], errs[i] = qdtree.Build(buildDS.Table(name), qdtree.BuildQueries(w, name), cuts, qdtree.Config{
				Table:        name,
				BlockSize:    opts.BlockSize,
				SampleRate:   rate,
				CASampleRate: opts.SampleRate,
				DisableCA:    opts.DisableCA,
				Parallelism:  opts.Parallelism,
			})
		}(i, name, cuts, rate)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		o.trees[name] = trees[i]
	}
	o.timings.OptimizeSeconds = time.Since(start).Seconds()

	// Chosen induced cuts must hold full-data literals before routing.
	routeStart := time.Now()
	if opts.SampleRate < 1 && opts.JoinInduction {
		if err := o.reevaluateInducedCuts(); err != nil {
			return nil, err
		}
	}
	o.timings.RoutingSeconds = time.Since(routeStart).Seconds()
	return o, nil
}

// effectiveParallelism resolves the Parallelism knob: <= 0 means "use every
// CPU", anything else is the exact worker budget.
func effectiveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// flattenInduced flattens the per-target predicate map into one slice in
// deterministic (sorted target, insertion) order, so batched evaluation
// reports errors deterministically across runs.
func flattenInduced(byTable map[string][]*induce.Predicate) []*induce.Predicate {
	targets := make([]string, 0, len(byTable))
	for name := range byTable {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	var out []*induce.Predicate
	for _, name := range targets {
		out = append(out, byTable[name]...)
	}
	return out
}

// reevaluateInducedCuts re-runs every chosen cut's semi-join chain on the
// full dataset (they were evaluated on the sample during construction),
// batched with shared scans and the same worker budget as the build.
func (o *Optimizer) reevaluateInducedCuts() error {
	return induce.EvaluateAll(o.ds, o.inducedCuts(), o.opts.Parallelism)
}

// inducedCuts returns the distinct join-induced predicates of every tree,
// visiting trees in table-name order so updates run, and errors surface,
// in a deterministic order.
func (o *Optimizer) inducedCuts() []*induce.Predicate {
	names := make([]string, 0, len(o.trees))
	for name := range o.trees {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[*induce.Predicate]bool{}
	var out []*induce.Predicate
	for _, name := range names {
		for _, ic := range o.trees[name].InducedCuts() {
			if !seen[ic.Ind] {
				seen[ic.Ind] = true
				out = append(out, ic.Ind)
			}
		}
	}
	return out
}

// Tree returns the learned qd-tree for a table (nil if unknown).
func (o *Optimizer) Tree(table string) *qdtree.Tree { return o.trees[table] }

// Dataset returns the dataset the optimizer was built over.
func (o *Optimizer) Dataset() *relation.Dataset { return o.ds }

// Workload returns the training workload.
func (o *Optimizer) Workload() *workload.Workload { return o.w }

// Options returns the optimization options (with defaults applied).
func (o *Optimizer) Options() Options { return o.opts }

// Timings returns the offline time breakdown.
func (o *Optimizer) Timings() Timings { return o.timings }

// Name returns "MTO" or "STO" depending on join induction.
func (o *Optimizer) Name() string {
	if o.opts.JoinInduction {
		return "MTO"
	}
	return "STO"
}

// Stats aggregates qd-tree statistics across tables (Table 2).
func (o *Optimizer) Stats() qdtree.Stats {
	var total qdtree.Stats
	for _, tree := range o.trees {
		total = total.Add(tree.Stats())
	}
	return total
}

// TableStats returns per-table tree statistics.
func (o *Optimizer) TableStats() map[string]qdtree.Stats {
	out := make(map[string]qdtree.Stats, len(o.trees))
	for name, tree := range o.trees {
		out[name] = tree.Stats()
	}
	return out
}

// BuildDesign routes every record of every table through its tree (§2.1.2)
// and returns the resulting physical design; routing time is added to
// Timings. Install the design into a block.Backend to execute queries.
func (o *Optimizer) BuildDesign() (*layout.Design, error) {
	start := time.Now()
	d := layout.NewDesign(o.Name(), o.opts.BlockSize)
	names := o.ds.TableNames()
	allGroups := make([][][]int32, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		tree := o.trees[name]
		if tree == nil {
			return nil, fmt.Errorf("core: no tree for table %q", name)
		}
		tree.Leaves() // index leaves before concurrent routing
		wg.Add(1)
		go func(i int, name string, tree *qdtree.Tree) {
			defer wg.Done()
			tbl := o.ds.Table(name)
			groups := tree.AssignRecordsParallel(tbl, o.opts.Parallelism)
			if ci, ok := tbl.Schema().ColumnIndex(o.opts.LeafOrderKeys[name]); ok {
				for _, g := range groups {
					layout.SortRows(tbl, g, ci)
				}
			}
			allGroups[i] = groups
		}(i, name, tree)
	}
	wg.Wait()
	for i, name := range names {
		d.SetTable(o.ds.Table(name), allGroups[i], o.trees[name].Route)
	}
	o.timings.RoutingSeconds += time.Since(start).Seconds()
	return d, nil
}

// Clone returns an optimizer with structural copies of the qd-trees,
// sharing the (immutable-during-reorganization) cuts, dataset, and
// workload: what is planned or applied against it leaves o's trees alone.
func (o *Optimizer) Clone() *Optimizer {
	c := &Optimizer{
		opts:    o.opts,
		ds:      o.ds,
		w:       o.w,
		unique:  o.unique,
		timings: o.timings,
		trees:   make(map[string]*qdtree.Tree, len(o.trees)),
	}
	for name, t := range o.trees {
		c.trees[name] = t.Clone()
	}
	return c
}
