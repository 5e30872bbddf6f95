package engine

import (
	"sort"

	"mto/internal/workload"
)

// reduceStep is one directed semijoin of the reduction schedule: reduce one
// side of join edge q.Joins[join] by the other side, keeping the rows
// without a match when anti.
type reduceStep struct {
	join    int
	tgtLeft bool // the target is the edge's left side
	anti    bool
	charge  charge
}

// charge names the rows a step is charged as join probes, counted as the
// step starts.
type charge uint8

const (
	chargeTarget charge = iota // the target's rows
	// chargeEdge: an inner or semi edge's first step of a repeated pass
	// charges both sides, so its second step (chargeNone) is charged as of
	// the edge's start too: 2·|a| on a self edge a = a.
	chargeEdge
	chargeNone
	// chargeOnce: a full outer edge reduces nothing and charges both sides
	// on pass 0 only; later passes re-run for other edges' benefit.
	chargeOnce
)

// sides returns the step's target and source aliases and their columns.
func (s reduceStep) sides(j workload.Join) (tgt, tgtCol, src, srcCol string) {
	if s.tgtLeft {
		return j.Left, j.LeftColumn, j.Right, j.RightColumn
	}
	return j.Right, j.RightColumn, j.Left, j.LeftColumn
}

// edgeSteps returns the directed steps of join edge k, whose type is typ:
// an inner or semi edge reduces its left side by its right, then its right
// by its left; a one-sided edge reduces the side it may drop rows of (an
// anti edge its preserved side, an outer edge its non-preserved one); a
// full outer edge reduces nothing.
func edgeSteps(k int, typ workload.JoinType) []reduceStep {
	switch typ {
	case workload.InnerJoin, workload.SemiJoin:
		return []reduceStep{{join: k, tgtLeft: true, charge: chargeEdge}, {join: k, charge: chargeNone}}
	case workload.LeftOuterJoin:
		return []reduceStep{{join: k}}
	case workload.RightOuterJoin:
		return []reduceStep{{join: k, tgtLeft: true}}
	case workload.LeftAntiSemiJoin:
		return []reduceStep{{join: k, tgtLeft: true, anti: true}}
	case workload.RightAntiSemiJoin:
		return []reduceStep{{join: k, anti: true}}
	}
	return []reduceStep{{join: k, charge: chargeOnce}}
}

// sweepSchedule returns the directed semijoins that fully reduce q's join
// graph, and whether they repeat: a pass of them runs again until nothing
// shrinks or maxReductionPasses. It is a function of the query and the
// post-scan alias counts only, so Execute and ExecuteReference run the
// same steps and charge the same probes.
//
// When the inner and semi edges form a forest — no cycle, no two edges on
// one alias pair, no edge from an alias to itself — two sweeps run once.
// Each tree is rooted at its largest alias. The bottom-up sweep reduces
// each parent by its children, least-surviving child first, after the
// children's own subtrees; the top-down sweep then reduces each child by
// its parent. Afterwards every edge is pairwise consistent, which leaves
// each alias with exactly the rows the repeated pass converges to (the
// full reducer of an acyclic join — the single forward and backward pass
// of "Parachute", PAPERS.md) at one step per direction per edge.
//
// A one-sided edge joins the sweeps when its non-preserved side is a leaf,
// an alias with no other edge, taking the one-sided steps of Parachute. An
// anti edge's source is final from the start, since nothing reduces it, so
// its step is a fixed filter on the preserved side: it runs in the
// bottom-up sweep right after the children reduce that side, while the
// side is smallest and before it reduces anything. A left or right outer
// edge reduces its non-preserved side after the sweeps, once its preserved
// source is final.
//
// Every other graph — a cycle, a one-sided edge on a non-leaf side, a full
// outer edge — repeats one pass of every edge's steps in declaration
// order. An inner edge's second step reads the side its first step just
// reduced, which keeps the rows a reduction of both sides by each other
// as of the edge's start would keep: the keys of l ⋉ r are those of l
// that r holds.
func sweepSchedule(q *workload.Query, counts map[string]int) (steps []reduceStep, repeat bool) {
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
			return repeatedPass(q), true
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
		if j.Type != workload.InnerJoin && j.Type != workload.SemiJoin {
			st := edgeSteps(k, j.Type)
			tgt, _, src, _ := st[0].sides(j)
			leaf := tgt // the non-preserved side
			if st[0].anti {
				leaf = src
			}
			switch {
			case st[0].charge == chargeOnce || edges[idx[leaf]] != 1:
				return repeatedPass(q), true
			case st[0].anti:
				anti[idx[tgt]] = append(anti[idx[tgt]], st[0])
			default:
				post = append(post, st[0])
			}
			continue
		}
		l, r := idx[j.Left], idx[j.Right]
		lr, rr := find(l), find(r)
		if lr == rr {
			return repeatedPass(q), true
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
	return append(append(up, down...), post...), false
}

// repeatedPass returns every edge's steps in declaration order.
func repeatedPass(q *workload.Query) []reduceStep {
	steps := make([]reduceStep, 0, 2*len(q.Joins))
	for k, j := range q.Joins {
		steps = append(steps, edgeSteps(k, j.Type)...)
	}
	return steps
}

// reduce runs q's reduction schedule, the one pass loop behind Execute and
// ExecuteReference: count reads an alias's surviving rows, and run reduces
// step i of the schedule (repeated or not) by its source, reporting whether
// the target shrank. A step whose edge names a column its alias's table
// lacks is skipped and charged nothing: there are no keys to reduce with,
// and reducing by a nil key set would wrongly drop every row (see
// runtimeBlockPrune). Returns the join probes charged (for the cost model).
func (e *Engine) reduce(q *workload.Query, count func(alias string) int, run func(i int, st reduceStep, repeat bool) bool) int {
	counts := make(map[string]int, len(q.Tables))
	for _, r := range q.Tables {
		counts[r.Name()] = count(r.Name())
	}
	steps, repeat := sweepSchedule(q, counts)
	probes := 0
	for pass := 0; pass < maxReductionPasses; pass++ {
		changed := false
		for i, st := range steps {
			j := q.Joins[st.join]
			if !e.joinColumnsExist(q, j) {
				continue
			}
			tgt, _, src, _ := st.sides(j)
			switch st.charge {
			case chargeTarget:
				probes += count(tgt)
			case chargeEdge:
				probes += count(tgt) + count(src)
			case chargeOnce:
				if pass == 0 {
					probes += count(tgt) + count(src)
				}
				continue
			}
			changed = run(i, st, repeat) || changed
		}
		if !repeat || !changed {
			break
		}
	}
	return probes
}
