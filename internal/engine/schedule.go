package engine

import (
	"sort"

	"mto/internal/workload"
)

// reduceStep is one directed semijoin of the sweep schedule: reduce one
// side of join edge q.Joins[join] by the other side, keeping the rows
// without a match when anti.
type reduceStep struct {
	join    int
	tgtLeft bool // the target is the edge's left side
	anti    bool
}

// sides returns the step's target and source aliases and their columns.
func (s reduceStep) sides(j workload.Join) (tgt, tgtCol, src, srcCol string) {
	if s.tgtLeft {
		return j.Left, j.LeftColumn, j.Right, j.RightColumn
	}
	return j.Right, j.RightColumn, j.Left, j.LeftColumn
}

// sweepSchedule returns the directed semijoins that fully reduce q's join
// graph in two sweeps, or ok = false when the graph needs the fixpoint.
// It is a function of the query and the post-scan alias counts only, so
// Execute and ExecuteReference run the same steps and charge the same
// probes.
//
// The inner and semi edges must form a forest — no cycle, no two edges on
// one alias pair, no edge from an alias to itself. Each tree is rooted at
// its largest alias. The bottom-up sweep reduces each parent by its
// children, least-surviving child first, after the children's own
// subtrees; the top-down sweep then reduces each child by its parent.
// Afterwards every edge is pairwise consistent, which leaves each alias
// with exactly the rows the pairwise fixpoint converges to (the full
// reducer of an acyclic join — the single forward and backward pass of
// "Parachute", PAPERS.md) at one step per direction per edge.
//
// A one-sided edge joins the sweeps when its non-preserved side is a leaf,
// an alias with no other edge, taking the one-sided steps of Parachute. An
// anti edge's source is final from the start, since nothing reduces it, so
// its step is a fixed filter on the preserved side: it runs in the
// bottom-up sweep right after the children reduce that side, while the
// side is smallest and before it reduces anything. A left or right outer
// edge reduces its non-preserved side after the sweeps, once its preserved
// source is final. A one-sided edge on a non-leaf side, or a full outer
// edge, keeps the fixpoint.
func sweepSchedule(q *workload.Query, counts map[string]int) ([]reduceStep, bool) {
	aliases := q.Aliases()
	idx := make(map[string]int, len(aliases))
	for i, a := range aliases {
		idx[a] = i
	}
	edges := make([]int, len(aliases)) // edges per alias, a self edge twice
	for _, j := range q.Joins {
		l, lok := idx[j.Left]
		r, rok := idx[j.Right]
		if !lok || !rok {
			return nil, false
		}
		edges[l]++
		edges[r]++
	}
	// Union-find over aliases: an edge whose ends are already connected
	// closes a cycle — a self edge and a second edge on one pair included.
	uf := make([]int, len(aliases))
	for i := range uf {
		uf[i] = i
	}
	find := func(i int) int {
		for uf[i] != i {
			uf[i] = uf[uf[i]]
			i = uf[i]
		}
		return i
	}
	type arc struct{ to, join int }
	adj := make([][]arc, len(aliases))
	anti := make([][]reduceStep, len(aliases)) // leaf anti steps by target
	var post []reduceStep
	for k, j := range q.Joins {
		l, r := idx[j.Left], idx[j.Right]
		switch {
		case j.Type == workload.LeftAntiSemiJoin && edges[r] == 1:
			anti[l] = append(anti[l], reduceStep{join: k, tgtLeft: true, anti: true})
			continue
		case j.Type == workload.RightAntiSemiJoin && edges[l] == 1:
			anti[r] = append(anti[r], reduceStep{join: k, anti: true})
			continue
		case j.Type == workload.LeftOuterJoin && edges[r] == 1:
			post = append(post, reduceStep{join: k})
			continue
		case j.Type == workload.RightOuterJoin && edges[l] == 1:
			post = append(post, reduceStep{join: k, tgtLeft: true})
			continue
		case j.Type != workload.InnerJoin && j.Type != workload.SemiJoin:
			return nil, false
		}
		lr, rr := find(l), find(r)
		if lr == rr {
			return nil, false
		}
		uf[lr] = rr
		adj[l] = append(adj[l], arc{r, k})
		adj[r] = append(adj[r], arc{l, k})
	}
	// Children least-surviving first; ties by declaration order.
	for _, arcs := range adj {
		sort.SliceStable(arcs, func(a, b int) bool {
			return counts[aliases[arcs[a].to]] < counts[aliases[arcs[b].to]]
		})
	}
	// Root each tree at its largest alias; ties by declaration order.
	root := map[int]int{} // union-find representative → root alias
	for i, a := range aliases {
		rep := find(i)
		if cur, ok := root[rep]; !ok || counts[a] > counts[aliases[cur]] {
			root[rep] = i
		}
	}
	var up, down []reduceStep
	step := func(k, tgt int) reduceStep {
		return reduceStep{join: k, tgtLeft: q.Joins[k].Left == aliases[tgt]}
	}
	var sweep func(v, parent int)
	sweep = func(v, parent int) {
		for _, c := range adj[v] {
			if c.to != parent {
				down = append(down, step(c.join, c.to))
				sweep(c.to, v)
			}
		}
		for _, c := range adj[v] {
			if c.to != parent {
				up = append(up, step(c.join, v))
			}
		}
		up = append(up, anti[v]...)
	}
	for i := range aliases {
		if rt, ok := root[find(i)]; ok && rt == i {
			sweep(i, -1)
		}
	}
	return append(append(up, down...), post...), true
}
