package induce

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// EvaluateAll materializes the literal form of every predicate in preds over
// ds (§3.2.1 step 1c), producing stages identical to running each
// predicate's semi-join chain row by row (the tests' scalar oracle) — at any
// parallelism — but batched:
//
//   - Scan sharing: predicates are grouped by (source table, source cut);
//     each distinct cut is compiled once via predicate.FillMask and its
//     match mask filled in one vectorized pass, then projected onto every
//     stage-0 join column that needs it.
//   - Prefix sharing: each distinct (source cut, hop prefix) is evaluated
//     exactly once; predicates sharing a prefix share the resulting key
//     set. Shared sets are marked so incremental maintenance clones them
//     on first mutation (see mutableStage).
//   - Vectorized hops: semi-join probe and projection run over the typed
//     column vectors (Table.Ints / Table.Strings) with a dense row mask
//     between them, and integer keys enter the roaring bitmap through the
//     bulk bitmap.AddMany path.
//   - Parallelism: the distinct scans/hops of one depth level are
//     independent and fan out across a worker pool of the given size
//     (<= 0 selects GOMAXPROCS; 1 forces the sequential path).
//
// On error no predicate is mutated; the first error reported follows the
// input order of preds, matching what the scalar path would have returned
// for that predicate.
func EvaluateAll(ds *relation.Dataset, preds []*Predicate, parallelism int) error {
	if len(preds) == 0 {
		return nil
	}
	plan := newEvalPlan(preds)
	par := parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Level 0: one task per distinct (source table, source cut) scan.
	tasks := make([]func(), 0, len(plan.groups))
	for _, g := range plan.groups {
		g := g
		tasks = append(tasks, func() { g.run(ds) })
	}
	runTasks(tasks, par)
	if err := plan.firstError(); err != nil {
		return err
	}

	// Levels >= 1: one task per distinct hop; a level only depends on the
	// one before it, so each level is an independent fan-out.
	for level := 1; level < len(plan.levels); level++ {
		tasks = tasks[:0]
		for _, n := range plan.levels[level] {
			n := n
			tasks = append(tasks, func() { n.runHop(ds) })
		}
		runTasks(tasks, par)
		if err := plan.firstError(); err != nil {
			return err
		}
	}

	// Publish: every predicate's stages point at its plan nodes' sets;
	// sets referenced by more than one predicate become copy-on-write.
	for pi, p := range preds {
		nodes := plan.predNodes[pi]
		p.stages = make([]*keySet, len(nodes))
		for i, n := range nodes {
			if n.refs > 1 {
				n.set.shared = true
			}
			p.stages[i] = n.set
		}
	}
	return nil
}

// stageNode is one distinct (source cut, hop prefix) in the shared
// evaluation plan. Its key canonicalizes the full chain that produces the
// stage's key set, so equal keys mean equal sets and the node is computed
// once no matter how many predicates reference it.
type stageNode struct {
	key    string
	level  int
	parent *stageNode // nil at level 0
	table  string     // scanned base table
	inCol  string     // level >= 1: column probed against parent's set
	outCol string     // column projected into set
	set    *keySet
	refs   int // number of predicate stages referencing this node
	err    error
}

// scanGroup collects the stage-0 nodes sharing one (source table, source
// cut) scan; the cut's match mask is computed once for all of them.
type scanGroup struct {
	table string
	cut   predicate.Predicate
	nodes []*stageNode // distinct projection columns over the same scan
}

// evalPlan is the deduplicated DAG of stage nodes for a predicate batch.
type evalPlan struct {
	nodes     map[string]*stageNode
	groups    map[string]*scanGroup
	levels    [][]*stageNode // levels[i] = hop nodes at depth i (i >= 1)
	predNodes [][]*stageNode // per input predicate, its stage nodes in order
}

func newEvalPlan(preds []*Predicate) *evalPlan {
	pl := &evalPlan{
		nodes:     map[string]*stageNode{},
		groups:    map[string]*scanGroup{},
		predNodes: make([][]*stageNode, 0, len(preds)),
	}
	for _, p := range preds {
		hops := p.Path.Hops
		// The group key identifies the scan; node keys additionally chain
		// the projection column and every later hop. String rendering as
		// canonical identity matches FromWorkload's dedup of whole
		// predicates.
		groupKey := p.Path.Source() + "\x00" + p.SourceCut.String()
		key := groupKey + "\x00" + hops[0].FromColumn
		var parent *stageNode
		nodes := make([]*stageNode, len(hops))
		for i, h := range hops {
			if i > 0 {
				key += "\x00" + h.FromTable + "\x00" + hops[i-1].ToColumn + "\x00" + h.FromColumn
			}
			n := pl.nodes[key]
			if n == nil {
				n = &stageNode{key: key, level: i, parent: parent, set: newKeySet()}
				if i == 0 {
					n.table, n.outCol = p.Path.Source(), h.FromColumn
					g := pl.groups[groupKey]
					if g == nil {
						g = &scanGroup{table: n.table, cut: p.SourceCut}
						pl.groups[groupKey] = g
					}
					g.nodes = append(g.nodes, n)
				} else {
					n.table, n.inCol, n.outCol = h.FromTable, hops[i-1].ToColumn, h.FromColumn
					for len(pl.levels) <= i {
						pl.levels = append(pl.levels, nil)
					}
					pl.levels[i] = append(pl.levels[i], n)
				}
				pl.nodes[key] = n
			}
			n.refs++
			nodes[i] = n
			parent = n
		}
		pl.predNodes = append(pl.predNodes, nodes)
	}
	return pl
}

// firstError returns the error of the first failed stage in input-predicate
// order, so the reported error is deterministic regardless of scheduling.
func (pl *evalPlan) firstError() error {
	for _, nodes := range pl.predNodes {
		for _, n := range nodes {
			if n.err != nil {
				return n.err
			}
		}
	}
	return nil
}

// run evaluates a stage-0 scan group: fill the cut's match mask once, then
// project it onto every requested join column.
func (g *scanGroup) run(ds *relation.Dataset) {
	t := ds.Table(g.table)
	if t == nil {
		err := fmt.Errorf("induce: missing source table %q", g.table)
		for _, n := range g.nodes {
			n.err = err
		}
		return
	}
	cols := make([]int, len(g.nodes))
	live := 0
	for i, n := range g.nodes {
		ci, ok := t.Schema().ColumnIndex(n.outCol)
		if !ok {
			n.err = fmt.Errorf("induce: %s has no column %q", g.table, n.outCol)
			cols[i] = -1
			continue
		}
		if err := checkJoinColumnKind(t, ci); err != nil {
			n.err = err
			cols[i] = -1
			continue
		}
		cols[i] = ci
		live++
	}
	if live == 0 {
		return
	}
	mask := make([]uint64, (t.NumRows()+63)>>6)
	predicate.FillMask(g.cut, t, mask)
	for i, n := range g.nodes {
		if cols[i] < 0 {
			continue
		}
		projectMask(t, mask, cols[i], n.set)
		n.set.optimize()
	}
}

// runHop evaluates one semi-join hop: probe the parent stage's key set over
// the hop table's in-column, then project the matching rows' out-column.
func (n *stageNode) runHop(ds *relation.Dataset) {
	t := ds.Table(n.table)
	if t == nil {
		n.err = fmt.Errorf("induce: missing table %q", n.table)
		return
	}
	inCi, ok := t.Schema().ColumnIndex(n.inCol)
	if !ok {
		n.err = fmt.Errorf("induce: %s has no column %q", n.table, n.inCol)
		return
	}
	outCi, ok := t.Schema().ColumnIndex(n.outCol)
	if !ok {
		n.err = fmt.Errorf("induce: %s has no column %q", n.table, n.outCol)
		return
	}
	if err := checkJoinColumnKind(t, inCi); err != nil {
		n.err = err
		return
	}
	if err := checkJoinColumnKind(t, outCi); err != nil {
		n.err = err
		return
	}
	mask := make([]uint64, (t.NumRows()+63)>>6)
	fillProbeMask(t, inCi, nil, n.parent.set, mask)
	projectMask(t, mask, outCi, n.set)
	n.set.optimize()
}

// fillProbeMask sets bit k for every rows[k] (every row of t when rows is
// nil) whose ci value is a member of prev — the vectorized semi-join
// probe. Null rows never match.
func fillProbeMask(t *relation.Table, ci int, rows []int32, prev *keySet, mask []uint64) {
	switch t.Schema().Column(ci).Type {
	case value.KindInt:
		vals := relation.Gather(t.Ints(ci), rows)
		// Snapshot the compressed set as a flat bitset when it is small
		// relative to the probe, turning each membership test from two
		// binary searches into one bit load. Out-of-range keys (negative or
		// >= 2^32, or beyond the snapshot) fall back to the exact path.
		if d := prev.denseSnapshot(2*len(vals) + 4096); d != nil {
			limit := uint64(len(d)) << 6
			for r, v := range vals {
				var b uint64
				if uint64(v) < limit {
					if d.Get(int(v)) {
						b = 1
					}
				} else if prev.containsInt(v) {
					b = 1
				}
				mask[r>>6] |= b << (uint(r) & 63)
			}
			break
		}
		for r, v := range vals {
			var b uint64
			if prev.containsInt(v) {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	case value.KindString:
		for r, v := range relation.Gather(t.Strings(ci), rows) {
			var b uint64
			if prev.containsStr(v) {
				b = 1
			}
			mask[r>>6] |= b << (uint(r) & 63)
		}
	}
	for r, isNull := range relation.Gather(t.Nulls(ci), rows) {
		if isNull {
			mask[r>>6] &^= 1 << (uint(r) & 63)
		}
	}
}

// projectMask adds the ci value of every masked row to set, dropping nulls
// (equijoin semantics). Integer keys are buffered and bulk-added so roaring
// container upgrades amortize across the whole projection.
func projectMask(t *relation.Table, mask []uint64, ci int, set *keySet) {
	nulls := t.Nulls(ci)
	switch t.Schema().Column(ci).Type {
	case value.KindInt:
		vals := t.Ints(ci)
		buf := make([]uint32, 0, 1024)
		for w, word := range mask {
			base := w << 6
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				r := base | b
				if nulls != nil && nulls[r] {
					continue
				}
				if v := vals[r]; inBitmapRange(v) {
					buf = append(buf, uint32(v))
				} else {
					set.addInt(v)
				}
			}
		}
		set.bm.AddMany(buf)
	case value.KindString:
		vals := t.Strings(ci)
		for w, word := range mask {
			base := w << 6
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				r := base | b
				if nulls != nil && nulls[r] {
					continue
				}
				set.addStr(vals[r])
			}
		}
	}
}

// runTasks executes the tasks across at most par workers (1 runs inline).
// Tasks must be independent; each writes only its own nodes, so results are
// identical at any worker count.
func runTasks(tasks []func(), par int) {
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		for _, task := range tasks {
			task()
		}
		return
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range ch {
				task()
			}
		}()
	}
	for _, task := range tasks {
		ch <- task
	}
	close(ch)
	wg.Wait()
}
