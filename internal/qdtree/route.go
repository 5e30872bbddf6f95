package qdtree

import (
	"runtime"
	"slices"
	"sync"

	"mto/internal/induce"
	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/workload"
)

// assign routes rows, ascending, through the subtree at n into the
// per-leaf buckets (each leaf's rows stay ascending). A node evaluates its
// cut over the rows reaching it in one mask pass and stably partitions
// them in place, left rows first; a leaf's bucket is its window of rows.
// The worker's buffers are reused node after node.
func (w *routeWorker) assign(n *Node, rows []int32) {
	if len(rows) == 0 {
		return
	}
	if n.IsLeaf() {
		w.buckets[n.LeafIndex] = rows[:len(rows):len(rows)]
		return
	}
	mask := w.mask[:(len(rows)+63)/64]
	clear(mask)
	n.Cut.FillMask(w.tbl, rows, mask, &w.gather)
	left, right := 0, 0
	for k, r := range rows { // branchless: each row is written both ways
		b := int(mask[k>>6] >> (uint(k) & 63) & 1)
		rows[left], w.spare[right] = r, r // left <= k: row k is already read
		left, right = left+b, right+1-b
	}
	copy(rows[left:], w.spare[:right])
	w.assign(n.Left, rows[:left])
	w.assign(n.Right, rows[left:])
}

// routeWorker is one record-routing worker's state: its leaf buckets and
// the buffers every node it routes reuses, a partition spare and a cut
// mask (both sized for the worker's whole row range) and the cut's gather
// buffers.
type routeWorker struct {
	tbl     *relation.Table
	buckets [][]int32
	spare   []int32
	mask    []uint64
	gather  predicate.Gather
}

// minRouteChunk is the smallest per-worker row range worth a goroutine.
const minRouteChunk = 4096

// AssignRecords routes every row of tbl through the tree (§2.1.2) and
// returns the row groups in leaf order: groups[i] holds the rows assigned
// to leaf i, in ascending row order. Induced cuts must be evaluated against
// the dataset tbl belongs to before calling. Routing uses GOMAXPROCS
// workers; see AssignRecordsParallel for an explicit budget.
func (t *Tree) AssignRecords(tbl *relation.Table) [][]int32 {
	return t.AssignRecordsParallel(tbl, 0)
}

// AssignRecordsParallel is AssignRecords with an explicit worker budget:
// the table is cut into contiguous row chunks routed concurrently, node by
// node, and per-chunk leaf buckets are concatenated in chunk order — so
// the groups are byte-identical at any parallelism (<= 0 selects
// GOMAXPROCS, 1 routes sequentially on the caller).
func (t *Tree) AssignRecordsParallel(tbl *relation.Table, parallelism int) [][]int32 {
	leaves := t.Leaves()
	n := tbl.NumRows()

	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n/minRouteChunk))
	chunk := (n + workers - 1) / workers
	perChunk := make([][][]int32, workers)
	route := func(c int) {
		lo, hi := min(c*chunk, n), min(c*chunk+chunk, n)
		rows := make([]int32, hi-lo)
		for k := range rows {
			rows[k] = int32(lo + k)
		}
		w := &routeWorker{tbl: tbl, buckets: make([][]int32, len(leaves)),
			spare: make([]int32, len(rows)), mask: make([]uint64, (len(rows)+63)/64)}
		w.assign(t.Root, rows)
		perChunk[c] = w.buckets
	}
	if workers == 1 {
		route(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for c := 0; c < workers; c++ {
			go func(c int) {
				defer wg.Done()
				route(c)
			}(c)
		}
		wg.Wait()
	}

	// Merge per-chunk buckets in chunk order: chunks are ascending row
	// ranges, so each group keeps the sequential ascending order.
	groups := make([][]int32, len(leaves))
	for li := range groups {
		total := 0
		for _, buckets := range perChunk {
			total += len(buckets[li])
		}
		if total == 0 {
			continue // an empty leaf's group is nil
		}
		g := make([]int32, 0, total)
		for _, buckets := range perChunk {
			g = append(g, buckets[li]...)
		}
		groups[li] = g
	}
	return groups
}

// RouteQuery returns the leaf indexes the query must access on this table
// (§2.1.2, §3.2.2). Queries can be routed to multiple leaves; a query that
// references the table through several aliases accesses the union. Queries
// that do not touch the table access no leaves. Safe for concurrent use.
func (t *Tree) RouteQuery(q *workload.Query) []int {
	aliases := q.AliasesOf(t.Table)
	if len(aliases) == 0 {
		return nil
	}
	needed := make([]bool, len(t.Leaves()))
	rt := t.prepared()
	qr := &queryRoutes{q: q}
	induced := make([]routeBits, len(rt.induced)) // memoized per query
	var filter func(predicate.Ranges) predicate.Tri
	var visit func(i int)
	visit = func(i int) {
		n := &rt.nodes[i]
		if n.leaf >= 0 {
			needed[n.leaf] = true
			return
		}
		var lr routeBits
		if n.induced < 0 {
			lr = n.simple.route(filter)
		} else if lr = induced[n.induced]; lr == 0 {
			lr = qr.decide(&rt.induced[n.induced], rt.paths) | routeDecided
			induced[n.induced] = lr
		}
		if lr&routeLeft != 0 {
			visit(n.left)
		}
		if lr&routeRight != 0 {
			visit(n.right)
		}
	}
	for _, alias := range aliases {
		filter = predicate.CompileRanges(q.FilterOn(alias))
		visit(len(rt.nodes) - 1) // the root
	}
	var out []int
	for i, n := range needed {
		if n {
			out = append(out, i)
		}
	}
	return out
}

// router is a tree prepared for query routing after a Reindex: the nodes
// in post-order, and each distinct induced cut prepared once.
type router struct {
	nodes   []routeNode
	induced []inducedRoute
	paths   pathTable
}

type routeNode struct {
	leaf        int // leaf index; -1 for inner nodes
	left, right int // children's positions in nodes
	induced     int // index into induced; -1 for a simple cut
	simple      simpleRoute
}

// prepared returns the tree's router, building it on first use (concurrent
// first callers may each build an identical one).
func (t *Tree) prepared() *router {
	if rt := t.router.Load(); rt != nil {
		return rt
	}
	rt := &router{}
	induced := map[*induce.Predicate]int{}
	var add func(n *Node) int // appends n's subtree in post-order
	add = func(n *Node) int {
		rn := routeNode{leaf: n.LeafIndex, induced: -1}
		if !n.IsLeaf() {
			rn.left, rn.right = add(n.Left), add(n.Right)
			if ind := n.Cut.induced(); ind == nil {
				rn.simple = newSimpleRoute(n.Cut.LeftRanges(n.Region), n.Cut.RightRanges(n.Region))
			} else if k, ok := induced[ind]; ok {
				rn.induced = k
			} else {
				rn.induced, induced[ind] = len(rt.induced), len(rt.induced)
				rt.induced = append(rt.induced, newInducedRoute(ind, &rt.paths))
			}
		}
		rt.nodes = append(rt.nodes, rn)
		return len(rt.nodes) - 1
	}
	add(t.Root)
	t.router.Store(rt)
	return rt
}

// routeBits records the children a query visits; routeDecided marks a memo.
type routeBits uint8

const (
	routeLeft routeBits = 1 << iota
	routeRight
	routeDecided
)

// simpleRoute is a simple cut bound to its node's child regions: a child is
// visited unless its region is empty or the compiled filter is false in it.
type simpleRoute struct {
	l, r           predicate.Ranges
	lEmpty, rEmpty bool
}

func newSimpleRoute(l, r predicate.Ranges) simpleRoute {
	return simpleRoute{l: l, r: r, lEmpty: l.HasEmpty(), rEmpty: r.HasEmpty()}
}

func (s *simpleRoute) route(filter func(predicate.Ranges) predicate.Tri) (lr routeBits) {
	if !s.lEmpty && filter(s.l) != predicate.TriFalse {
		lr |= routeLeft
	}
	if !s.rEmpty && filter(s.r) != predicate.TriFalse {
		lr |= routeRight
	}
	return lr
}

// zone is a predicate's range extraction and compiled zone evaluator.
type zone struct {
	ranges predicate.Ranges
	eval   func(predicate.Ranges) predicate.Tri
}

func zoneOf(p predicate.Predicate) zone {
	return zone{ranges: predicate.RangesOf(p), eval: predicate.CompileRanges(p)}
}

// intersects reports whether a and b, over one table, can hold together:
// false only when range extraction proves them disjoint, either way round.
func (a zone) intersects(b zone) bool {
	if a.ranges.HasEmpty() {
		return false
	}
	for col, iv := range b.ranges {
		if a.ranges.Get(col).Intersect(iv).Empty {
			return false
		}
	}
	return a.eval(b.ranges) != predicate.TriFalse && b.eval(a.ranges) != predicate.TriFalse
}

// inducedRoute is an induced cut prepared for routing. Its answer ignores
// the node (§4.1.2), so a query is routed through it once.
type inducedRoute struct {
	path     int
	cut, neg zone
}

func newInducedRoute(ind *induce.Predicate, paths *pathTable) inducedRoute {
	return inducedRoute{paths.intern(ind.Path), zoneOf(ind.SourceCut), zoneOf(ind.SourceCut.Negate())}
}

// pathTable interns induction paths.
type pathTable []joingraph.Path

func (pt *pathTable) intern(p joingraph.Path) int {
	for i, q := range *pt {
		if slices.Equal(p.Hops, q.Hops) {
			return i
		}
	}
	*pt = append(*pt, p)
	return len(*pt) - 1
}

// queryRoutes is one query's induced-cut state, filled lazily: each path
// matched once, each source alias's filter prepared once.
type queryRoutes struct {
	q       *workload.Query
	sources [][]zone // per path: nil until matched, empty when not contained
	filters map[string]zone
}

// decide routes the query through an induced cut (§4.1.2): both children
// unless its join graph contains the cut's path; then left iff a matched
// source alias's filter intersects the source cut, right iff its negation.
func (qr *queryRoutes) decide(ir *inducedRoute, paths pathTable) (lr routeBits) {
	if qr.sources == nil {
		qr.sources, qr.filters = make([][]zone, len(paths)), map[string]zone{}
	}
	src := qr.sources[ir.path]
	if src == nil {
		aliases, _ := joingraph.MatchPath(qr.q, paths[ir.path])
		src = make([]zone, 0, len(aliases))
		for _, a := range aliases {
			f, ok := qr.filters[a]
			if !ok {
				f = zoneOf(qr.q.FilterOn(a))
				qr.filters[a] = f
			}
			src = append(src, f)
		}
		qr.sources[ir.path] = src
	}
	if len(src) == 0 {
		return routeLeft | routeRight
	}
	for _, f := range src {
		if f.intersects(ir.cut) {
			lr |= routeLeft
		}
		if f.intersects(ir.neg) {
			lr |= routeRight
		}
		if lr == routeLeft|routeRight {
			break
		}
	}
	return lr
}

// SubtreeLeaves returns the leaf nodes under n in left-to-right order.
func SubtreeLeaves(n *Node) []*Node {
	var out []*Node
	var walk func(m *Node)
	walk = func(m *Node) {
		if m == nil {
			return
		}
		if m.IsLeaf() {
			out = append(out, m)
			return
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	return out
}

// Replace substitutes newSub for old within the tree and reindexes the
// leaves. old must currently be attached to the tree (or be the root).
func (t *Tree) Replace(old, newSub *Node) {
	newSub.Parent = old.Parent
	if old.Parent == nil {
		t.Root = newSub
	} else if old.Parent.Left == old {
		old.Parent.Left = newSub
	} else {
		old.Parent.Right = newSub
	}
	t.Reindex()
}

// CollectRows gathers the base-table rows stored in the blocks of the given
// leaves, given the per-leaf row groups from the current layout.
func CollectRows(leaves []*Node, groups [][]int32) []int32 {
	var out []int32
	for _, lf := range leaves {
		if lf.LeafIndex >= 0 && lf.LeafIndex < len(groups) {
			out = append(out, groups[lf.LeafIndex]...)
		}
	}
	return out
}
