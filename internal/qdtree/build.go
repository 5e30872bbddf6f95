package qdtree

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
)

// BuildQuery is one routing unit of the training workload: a query's view
// of the table through one alias. Self-join queries contribute one
// BuildQuery per alias.
type BuildQuery struct {
	Query  *workload.Query
	Alias  string
	Weight float64
}

// BuildQueries expands a workload into the routing units for one table.
func BuildQueries(w *workload.Workload, table string) []BuildQuery {
	var out []BuildQuery
	for _, q := range w.Queries {
		for _, alias := range q.AliasesOf(table) {
			out = append(out, BuildQuery{
				Query:  q,
				Alias:  alias,
				Weight: q.EffectiveWeight(),
			})
		}
	}
	return out
}

// Config controls greedy construction.
type Config struct {
	// Table is the base table name.
	Table string
	// BlockSize is the target rows per block in full-data terms.
	BlockSize int
	// SampleRate is the sampling rate s the build table was drawn at
	// (1 for no sampling). Cardinality estimates divide by it (§4.2).
	SampleRate float64
	// CASampleRate is the dataset-wide sampling rate that thins induced
	// cuts' literals (one factor per join on the induction path). It can
	// differ from SampleRate for small tables kept whole while the rest
	// of the dataset was sampled. Zero defaults to SampleRate.
	CASampleRate float64
	// DisableCA turns off cardinality adjustment (the Fig. 13a ablation):
	// sampled counts are scaled by 1/s uniformly, ignoring join thinning.
	DisableCA bool
	// Parallelism bounds the goroutines the build may use: candidate
	// membership precompute, per-node cut scoring, and the left/right
	// subtree recursion all draw from one shared budget. Values <= 0
	// select runtime.GOMAXPROCS(0); 1 builds sequentially on the caller.
	// The resulting tree is byte-identical at any setting.
	Parallelism int
}

func (c Config) validate() error {
	if c.Table == "" {
		return fmt.Errorf("qdtree: empty table name")
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("qdtree: non-positive block size %d", c.BlockSize)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("qdtree: sample rate %g out of (0, 1]", c.SampleRate)
	}
	if c.CASampleRate < 0 || c.CASampleRate > 1 {
		return fmt.Errorf("qdtree: CA sample rate %g out of [0, 1]", c.CASampleRate)
	}
	return nil
}

// Build greedily constructs a qd-tree for tbl (§2.1.3): starting from a
// single root covering all records, repeatedly split the leaf with the
// candidate cut that maximizes workload-weighted skipped records, until no
// cut yields both children of at least one block and positive skipping.
//
// When built on a sample, induced cuts among the candidates must already be
// evaluated against the sampled dataset; cardinality adjustment corrects
// their block-size estimates (§4.2).
//
// Candidate scoring and the subtree recursion run across a bounded worker
// budget (Config.Parallelism) with a deterministic argmax reduction —
// highest score wins, ties break to the lowest cut index — so the parallel
// build produces a byte-identical tree to the sequential one.
func Build(tbl *relation.Table, queries []BuildQuery, cuts []Cut, cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CASampleRate == 0 {
		cfg.CASampleRate = cfg.SampleRate
	}
	tree := &Tree{Table: cfg.Table, BlockSize: cfg.BlockSize, Schema: tbl.Schema()}

	n := tbl.NumRows()
	est := float64(n) / cfg.SampleRate
	// A root that can never split — no queries to skip for, no candidate
	// cuts, or fewer than two blocks of data — needs no O(cuts × rows)
	// membership precompute: return the single-leaf tree immediately.
	if len(queries) == 0 || len(cuts) == 0 || n < 2 || est < 2*float64(cfg.BlockSize) {
		tree.Root = &Node{LeafIndex: -1, SampleRows: n, EstRows: est}
		tree.Reindex()
		return tree, nil
	}

	b := newBuilder(tbl.Schema(), queries, cuts, cfg)
	b.precomputeMatches(tbl)
	all := make([]int32, len(queries))
	for i := range all {
		all[i] = int32(i)
	}
	tree.Root = b.split(fullRowSet(n), all, predicate.Ranges{}, map[string]bool{}, 1, est, nil)
	tree.Reindex()
	return tree, nil
}

type builder struct {
	schema  *relation.Schema // the table's: regions and filters bind to it
	cuts    []Cut
	matches []bitset // per-cut row membership over the build table
	cfg     Config

	// Routing inputs, prepared once per build; node query lists index queries.
	queries []BuildQuery
	filters []predicate.ZoneEval         // per query: its alias's zone evaluator
	zones   []map[string]*predicate.Zone // per query: its aliases on this table and induced cuts' sources
	induced []*inducedDecisions          // per cut; nil for simple cuts
	paths   pathTable

	// spare holds the worker tokens beyond the calling goroutine. Scoring
	// fan-out and subtree recursion acquire tokens non-blockingly, so the
	// build never exceeds its budget and never deadlocks on itself.
	spare chan struct{}
}

// inducedDecisions is one induced cut's routing of every build query,
// filled by the first worker that scores the cut.
type inducedDecisions struct {
	route  inducedRoute
	once   sync.Once
	routes []routeBits // per build query
}

func newBuilder(schema *relation.Schema, queries []BuildQuery, cuts []Cut, cfg Config) *builder {
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	b := &builder{schema: schema, cuts: cuts, cfg: cfg, queries: queries, induced: make([]*inducedDecisions, len(cuts))}
	schemas := map[string]*relation.Schema{}
	for i, c := range cuts {
		if ind := c.induced(); ind != nil {
			b.induced[i] = &inducedDecisions{route: newInducedRoute(ind, &b.paths)}
			schemas[ind.Path.Source()] = ind.SourceSchema()
		}
	}
	schemas[schema.Table()] = schema
	for _, bq := range queries {
		zones := zonesFor(bq.Query, schemas)
		for _, z := range zones {
			z.Ranges() // derived before scoring workers share it
		}
		b.zones = append(b.zones, zones)
		b.filters = append(b.filters, zones[bq.Alias].Eval)
	}
	if p > 1 {
		b.spare = make(chan struct{}, p-1)
		for i := 0; i < p-1; i++ {
			b.spare <- struct{}{}
		}
	}
	return b
}

// acquire takes one spare worker token if immediately available.
func (b *builder) acquire() bool {
	select {
	case <-b.spare:
		return true
	default:
		return false
	}
}

func (b *builder) release() { b.spare <- struct{}{} }

// precomputeMatches evaluates every candidate's membership bitset over the
// build table in one vectorized pass per cut, fanning cuts out across the
// worker budget.
func (b *builder) precomputeMatches(tbl *relation.Table) {
	n := tbl.NumRows()
	b.matches = make([]bitset, len(b.cuts))
	one := func(i int) {
		m := newBitset(n)
		b.cuts[i].FillMask(tbl, nil, m, nil)
		b.matches[i] = m
	}

	extra := 0
	for extra < len(b.cuts)-1 && b.acquire() {
		extra++
	}
	if extra == 0 {
		for i := range b.cuts {
			one(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(extra + 1)
	for w := 0; w <= extra; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.cuts) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < extra; i++ {
		b.release()
	}
}

// candidate is one cut's scoring outcome at a node.
type candidate struct {
	idx    int
	score  float64
	countL int
	estL   float64
	kNew   float64
	routes []routeBits // per node query, the cut's routing decisions
}

// better reports whether c should replace cur: higher score wins, ties
// break to the lowest cut index — the same winner a sequential left-to-
// right scan picks, making the parallel reduction deterministic.
func better(c, cur *candidate) bool {
	if cur == nil {
		return true
	}
	if c.score != cur.score {
		return c.score > cur.score
	}
	return c.idx < cur.idx
}

// split builds the subtree for the given row set. k is the accumulated CA
// divisor product s^{|joins on yes-path|}; est is the node's full-data
// cardinality estimate.
func (b *builder) split(rows *rowSet, queries []int32, region predicate.Ranges,
	pathJoins map[string]bool, k float64, est float64, parent *Node) *Node {

	node := &Node{
		Parent:     parent,
		LeafIndex:  -1,
		SampleRows: rows.count,
		EstRows:    est,
		Region:     region,
	}
	// A node smaller than two blocks cannot split into two valid blocks.
	if est < 2*float64(b.cfg.BlockSize) || rows.count < 2 || len(queries) == 0 {
		return node
	}

	best := b.bestCut(rows, queries, region, pathJoins, k, est)
	if best == nil {
		return node // no cut skips anything: leaf
	}

	cut := b.cuts[best.idx]
	node.Cut = cut

	// Partition rows (bitset AND / AND-NOT against the winning membership).
	leftRows, rightRows := rows.partition(b.matches[best.idx])

	// Partition queries by the routing decisions cached from scoring.
	var leftQs, rightQs []int32
	for qi, lr := range best.routes {
		if lr&routeLeft != 0 {
			leftQs = append(leftQs, queries[qi])
		}
		if lr&routeRight != 0 {
			rightQs = append(rightQs, queries[qi])
		}
	}

	// The yes child accumulates the cut's joins for CA de-duplication; the
	// no child keeps the parent's context (§4.2).
	leftJoins := pathJoins
	leftK := k
	if jk := cut.JoinKeys(); len(jk) > 0 && !b.cfg.DisableCA {
		leftJoins = make(map[string]bool, len(pathJoins)+len(jk))
		for j := range pathJoins {
			leftJoins[j] = true
		}
		for _, j := range jk {
			leftJoins[j] = true
		}
		leftK = k * best.kNew
	}

	leftRegion, rightRegion := cut.LeftRanges(region, b.schema), cut.RightRanges(region, b.schema)
	estR := est - best.estL
	if b.acquire() {
		var right *Node
		done := make(chan struct{})
		go func() {
			right = b.split(rightRows, rightQs, rightRegion, pathJoins, k, estR, node)
			b.release()
			close(done)
		}()
		node.Left = b.split(leftRows, leftQs, leftRegion, leftJoins, leftK, best.estL, node)
		<-done
		node.Right = right
	} else {
		node.Left = b.split(leftRows, leftQs, leftRegion, leftJoins, leftK, best.estL, node)
		node.Right = b.split(rightRows, rightQs, rightRegion, pathJoins, k, estR, node)
	}
	return node
}

// bestCut scores every candidate at a node — fanning cuts across any spare
// workers — and returns the deterministic argmax, or nil when no cut yields
// a valid, positively scoring split.
func (b *builder) bestCut(rows *rowSet, queries []int32, region predicate.Ranges,
	pathJoins map[string]bool, k, est float64) *candidate {

	s := b.cfg.SampleRate
	// scoreCut evaluates cut i, writing per-query route decisions into the
	// caller-owned scratch; the returned candidate aliases scratch.
	scoreCut := func(i int, scratch []routeBits) *candidate {
		cut := b.cuts[i]
		countL := rows.andCount(b.matches[i])
		if countL == 0 || countL == rows.count {
			return nil // degenerate split
		}
		kNew := 1.0
		if !b.cfg.DisableCA {
			rates := cut.JoinRates()
			for hi, jk := range cut.JoinKeys() {
				if pathJoins[jk] {
					continue // already adjusted for this join (§4.2)
				}
				if rates != nil {
					kNew *= rates[hi]
				} else {
					kNew *= b.cfg.CASampleRate
				}
			}
		}
		estL := float64(countL) / (s * k * kNew)
		if estL > est {
			estL = est
		}
		estR := est - estL
		if estL < float64(b.cfg.BlockSize) || estR < float64(b.cfg.BlockSize) {
			return nil // children must each fill at least one block
		}
		var route func(qi int32) routeBits
		if d := b.induced[i]; d != nil {
			d.once.Do(func() {
				d.routes = make([]routeBits, len(b.queries))
				for qi, bq := range b.queries {
					d.routes[qi] = (&queryRoutes{q: bq.Query, zones: b.zones[qi]}).decide(&d.route, b.paths)
				}
			})
			route = func(qi int32) routeBits { return d.routes[qi] }
		} else {
			sr := newSimpleRoute(cut.LeftRanges(region, b.schema), cut.RightRanges(region, b.schema))
			route = func(qi int32) routeBits { return sr.route(b.filters[qi]) }
		}
		score := 0.0
		for j, qi := range queries {
			lr := route(qi)
			w := b.queries[qi].Weight
			if lr&routeLeft == 0 {
				score += w * estL
			}
			if lr&routeRight == 0 {
				score += w * estR
			}
			scratch[j] = lr
		}
		if score <= 0 {
			return nil // a cut no query skips on cannot win
		}
		return &candidate{idx: i, score: score, countL: countL, estL: estL, kNew: kNew, routes: scratch}
	}

	// scan runs scoreCut over indexes from next, keeping its local best and
	// handing the scratch buffer off to accepted candidates.
	scan := func(next func() int) *candidate {
		scratch := make([]routeBits, len(queries))
		var local *candidate
		for {
			i := next()
			if i >= len(b.cuts) {
				return local
			}
			if c := scoreCut(i, scratch); c != nil && better(c, local) {
				local = c
				scratch = make([]routeBits, len(queries))
			}
		}
	}

	extra := 0
	for extra < len(b.cuts)-1 && b.acquire() {
		extra++
	}
	if extra == 0 {
		i := 0
		return scan(func() int { i++; return i - 1 })
	}

	var next atomic.Int64
	take := func() int { return int(next.Add(1)) - 1 }
	locals := make([]*candidate, extra+1)
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			locals[w] = scan(take)
		}(w)
	}
	locals[0] = scan(take)
	wg.Wait()
	for i := 0; i < extra; i++ {
		b.release()
	}

	var best *candidate
	for _, c := range locals {
		if c != nil && better(c, best) {
			best = c
		}
	}
	return best
}
