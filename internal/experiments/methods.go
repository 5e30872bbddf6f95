package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/layout"
)

// Method names used across the experiments (§6.1.3).
const (
	MethodBaseline     = "Baseline"
	MethodBaselineDiPs = "Baseline+diPs"
	MethodBaselineSI   = "Baseline+SI"
	MethodZOrder       = "ZOrder"
	MethodSTO          = "STO"
	MethodSTODiPs      = "STO+diPs"
	MethodSTOSI        = "STO+SI"
	MethodMTO          = "MTO"
)

// deploySeq disambiguates the segment directories of disk-backed
// deployments: the same method can be deployed several times per process
// (fig13 sweeps, benchmarks), and each deployment needs its own segment
// generation space.
var deploySeq atomic.Int64

// newBenchStore returns the bench's segment store with the default cost
// calibration: segments held in memory by default, or as files when
// b.Store is "disk" (each deployment gets its own subdirectory of
// b.DataDir).
func newBenchStore(b *Bench, method string) (block.Backend, error) {
	if b == nil || b.Store == "" || b.Store == "mem" {
		return colstore.NewMemStore(block.DefaultCostModel()), nil
	}
	if b.Store != "disk" {
		return nil, fmt.Errorf("experiments: unknown store %q (want \"mem\" or \"disk\")", b.Store)
	}
	if b.DataDir == "" {
		return nil, fmt.Errorf(`experiments: store "disk" requires DataDir`)
	}
	dir := filepath.Join(b.DataDir, fmt.Sprintf("%s-%s-%d", b.Name, method, deploySeq.Add(1)))
	return colstore.NewStore(dir, int64(b.CacheMB)<<20, block.DefaultCostModel())
}

// Deployment is one installed layout ready to execute queries.
type Deployment struct {
	Method    string
	Design    *layout.Design
	Store     block.Backend
	Optimizer *core.Optimizer // nil for Baseline/ZOrder
	// OptimizeSeconds/RoutingSeconds are the offline costs (zero for the
	// sort-based layouts, whose sorting we fold into routing).
	OptimizeSeconds float64
	RoutingSeconds  float64
}

// Close releases the deployment's store: a disk store's segment files.
// The deployment answers no query afterwards.
func (d *Deployment) Close() error {
	if c, ok := d.Store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// cloudDW controls whether Install emulates Cloud DW's non-uniform blocks.
type installMode int

const (
	installUniform  installMode = iota // simulation: exact 500K-style blocks
	installJittered                    // Cloud DW: fill factor in [0.3, 1]
)

// BuildTiming is one optimizer deployment's offline cost breakdown, kept in
// a package-level log so mtobench can print a Timings summary after each
// experiment (Table 3's OptimizeSeconds / RoutingSeconds split).
type BuildTiming struct {
	Bench           string
	Method          string
	OptimizeSeconds float64
	RoutingSeconds  float64
}

var (
	timingMu  sync.Mutex
	timingLog []BuildTiming
)

func recordTiming(t BuildTiming) {
	timingMu.Lock()
	timingLog = append(timingLog, t)
	timingMu.Unlock()
}

// DrainTimings returns the offline timings recorded since the last drain,
// in deployment order, and clears the log.
func DrainTimings() []BuildTiming {
	timingMu.Lock()
	defer timingMu.Unlock()
	out := timingLog
	timingLog = nil
	return out
}

// deploy builds and installs the named method's layout for the bench.
// b.Parallel bounds the offline worker budget (qd-tree build, record
// routing, per-table sorts) exactly as it bounds replay.
func deploy(b *Bench, method string, mode installMode) (_ *Deployment, err error) {
	store, err := newBenchStore(b, method)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Method: method, Store: store}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	switch method {
	case MethodBaseline, MethodBaselineDiPs, MethodBaselineSI:
		d.Design, err = layout.SortKeyDesignParallel(b.Dataset, b.SortKeys, b.BlockSize, b.Parallel)
	case MethodZOrder:
		d.Design, err = layout.ZOrderDesignParallel(b.Dataset, zOrderColumnsFor(b), b.BlockSize, b.Parallel)
	case MethodSTO, MethodSTODiPs, MethodSTOSI, MethodMTO:
		opt, oerr := core.Optimize(b.Dataset, b.Workload, core.Options{
			BlockSize:     b.BlockSize,
			SampleRate:    b.SampleRate,
			JoinInduction: method == MethodMTO,
			LeafOrderKeys: map[string]string(b.SortKeys),
			Seed:          b.Seed,
			Parallelism:   b.Parallel,
		})
		if oerr != nil {
			return nil, oerr
		}
		d.Optimizer = opt
		d.Design, err = opt.BuildDesign()
		if err == nil {
			d.OptimizeSeconds = opt.Timings().OptimizeSeconds
			d.RoutingSeconds = opt.Timings().RoutingSeconds
			recordTiming(BuildTiming{
				Bench:           b.Name,
				Method:          method,
				OptimizeSeconds: d.OptimizeSeconds,
				RoutingSeconds:  d.RoutingSeconds,
			})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", method)
	}
	if err != nil {
		return nil, err
	}
	var jitter *rand.Rand
	minFill := 0.0
	if mode == installJittered {
		jitter = rand.New(rand.NewSource(b.Seed + 77))
		minFill = 0.3
	}
	if _, err := d.Design.Install(d.Store, jitter, minFill); err != nil {
		return nil, err
	}
	return d, nil
}

// zOrderColumnsFor picks the two most-filtered columns per table from the
// bench workload — the manual tuning a DBA would do (§2).
func zOrderColumnsFor(b *Bench) layout.ZOrderColumns {
	counts := map[string]map[string]int{}
	for _, q := range b.Workload.Queries {
		for alias, f := range q.Filters {
			table := q.BaseTable(alias)
			if counts[table] == nil {
				counts[table] = map[string]int{}
			}
			f.VisitColumns(func(col string) { counts[table][col]++ })
		}
	}
	out := layout.ZOrderColumns{}
	for table, cols := range counts {
		var best, second string
		for col, n := range cols {
			switch {
			case best == "" || n > counts[table][best]:
				best, second = col, best
			case second == "" || n > counts[table][second]:
				second = col
			}
		}
		picked := []string{best}
		if second != "" {
			picked = append(picked, second)
		}
		out[table] = picked
	}
	return out
}

// secondaryIndexFor names the fact-table join column the SI variants index
// (§6.3.1 creates one on lineitem's l_orderkey).
var secondaryIndexFor = map[string]map[string]string{
	"TPC-H":  {"lineitem": "l_orderkey"},
	"SSB":    {"lineorder": "lo_custkey"},
	"TPC-DS": {"store_sales": "ss_item_sk"},
}

// engineOptions maps a method to its execution features.
func engineOptions(b *Bench, method string, cloudDW bool) engine.Options {
	var opts engine.Options
	if cloudDW {
		opts = engine.CloudDWOptions()
	} else {
		opts = engine.DefaultOptions()
	}
	switch method {
	case MethodBaselineDiPs, MethodSTODiPs:
		opts.DiPs = true
	case MethodBaselineSI, MethodSTOSI:
		// A secondary index on the fact join column pushes exact join
		// keys to precise block positions at runtime (§6.3.1).
		opts.SecondaryIndexes = secondaryIndexFor[b.Name]
	}
	return opts
}

// RunResult aggregates one method's execution of a workload.
type RunResult struct {
	Method string
	// Blocks is the total blocks accessed across the workload.
	Blocks int
	// Fraction is the mean per-query fraction of blocks accessed out of
	// the blocks in the accessed base tables (§6.1.4 metric 2).
	Fraction float64
	// Seconds is the total simulated query execution time.
	Seconds float64
	// OptimizeSeconds/RoutingSeconds are offline costs.
	OptimizeSeconds float64
	RoutingSeconds  float64
	// PerQuery holds per-query metrics in workload order.
	PerQuery []QueryMetric
}

// QueryMetric is one query's outcome.
type QueryMetric struct {
	ID       string
	Blocks   int
	Fraction float64
	Seconds  float64
	// Aggregates holds the query's computed aggregates rendered as
	// "sum(lo.lo_revenue)=4099853" strings, in declaration order (nil when
	// the query requests none). Like surviving rows they are a function of
	// data and query only, so the replay identity tests pin them
	// byte-identical across segment stores, caches, and parallelism.
	Aggregates []string
}

// run replays the bench workload against a deployment via the parallel
// workload runner. b.Parallel bounds the worker pool (0 = GOMAXPROCS,
// 1 = sequential); the aggregates are identical at any parallelism.
func run(b *Bench, d *Deployment, opts engine.Options) (*RunResult, error) {
	eng := engine.New(d.Store, d.Design, b.Dataset, opts)
	wr, err := engine.RunWorkload(eng, b.Workload.Queries, engine.RunOptions{Parallelism: b.Parallel})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Method, err)
	}
	out := &RunResult{
		Method:          d.Method,
		Blocks:          wr.Blocks,
		Fraction:        wr.Fraction,
		Seconds:         wr.Seconds,
		OptimizeSeconds: d.OptimizeSeconds,
		RoutingSeconds:  d.RoutingSeconds,
		PerQuery:        make([]QueryMetric, 0, len(wr.Results)),
	}
	for _, res := range wr.Results {
		qm := QueryMetric{
			ID:       res.Query,
			Blocks:   res.BlocksRead,
			Fraction: res.FractionOfBlocks(),
			Seconds:  res.Seconds,
		}
		for _, av := range res.Aggregates {
			qm.Aggregates = append(qm.Aggregates, av.String())
		}
		out.PerQuery = append(out.PerQuery, qm)
	}
	return out, nil
}

// DeployMethod builds and installs one method's layout without executing
// the workload. cloudDW selects the jittered-install mode of §6.1.2.
func DeployMethod(b *Bench, method string, cloudDW bool) (*Deployment, error) {
	mode := installUniform
	if cloudDW {
		mode = installJittered
	}
	return deploy(b, method, mode)
}

// Replay executes the bench workload against an existing deployment,
// letting callers (replay benchmarks, parallelism sweeps) rerun a workload
// without paying the deploy cost again.
func Replay(b *Bench, d *Deployment, cloudDW bool) (*RunResult, error) {
	return run(b, d, engineOptions(b, d.Method, cloudDW))
}

// RunMethod deploys and executes one method on a bench, then closes the
// deployment: the workhorse for Fig. 10-style comparisons. cloudDW selects
// the jittered-install, semi-join-reduction execution mode of §6.1.2.
func RunMethod(b *Bench, method string, cloudDW bool) (*RunResult, error) {
	d, err := DeployMethod(b, method, cloudDW)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return run(b, d, engineOptions(b, method, cloudDW))
}

// runDesign installs design on a fresh bench store, replays the workload
// against it with the default engine options, and closes the store.
func runDesign(b *Bench, name string, design *layout.Design, opt *core.Optimizer) (*RunResult, error) {
	store, err := newBenchStore(b, name)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Method: name, Design: design, Optimizer: opt, Store: store}
	defer d.Close()
	if _, err := design.Install(d.Store, nil, 0); err != nil {
		return nil, err
	}
	return run(b, d, engine.DefaultOptions())
}
