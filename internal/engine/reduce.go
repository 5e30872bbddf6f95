package engine

import (
	"sort"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// keysOf collects the distinct join-key values of the alias's surviving
// rows in column ci. NULL and NaN are left out: neither matches an
// equijoin (and a NaN map key never matches a lookup anyway).
func keysOf(tbl *relation.Table, rows []int32, ci int) map[value.Value]struct{} {
	out := make(map[value.Value]struct{}, len(rows))
	for _, r := range rows {
		if v := tbl.Value(int(r), ci); !v.IsNull() && !v.IsNaN() {
			out[v] = struct{}{}
		}
	}
	return out
}

// sortedKeys returns the key set as a sorted slice for zone-interval
// probes: kind-first, then value order. Grouping by kind keeps the slice
// totally ordered even when the set mixes non-comparable kinds (value
// comparisons panic across, say, int and string), so anyKeyInInterval can
// binary-search each same-kind run independently.
func sortedKeys(set map[value.Value]struct{}) []value.Value {
	out := make([]value.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if ki, kj := out[i].Kind(), out[j].Kind(); ki != kj {
			return ki < kj
		}
		return out[i].Less(out[j])
	})
	return out
}

// anyKeyInInterval reports whether some key falls inside iv. keys must be
// in sortedKeys order (kind-first). Keys of a kind not comparable with
// iv's bounds cannot be proven outside the interval, so they count as hits
// — pruning must stay conservative rather than panic on mixed-kind data.
func anyKeyInInterval(keys []value.Value, iv *predicate.Interval) bool {
	if iv.Empty || len(keys) == 0 {
		return false
	}
	for start := 0; start < len(keys); {
		end := start + 1
		for end < len(keys) && keys[end].Kind() == keys[start].Kind() {
			end++
		}
		if groupInInterval(keys[start:end], iv) {
			return true
		}
		start = end
	}
	return false
}

// groupInInterval probes one same-kind run of sorted keys against iv.
func groupInInterval(keys []value.Value, iv *predicate.Interval) bool {
	if (!iv.Min.IsNull() && !keys[0].Comparable(iv.Min)) ||
		(!iv.Max.IsNull() && !keys[0].Comparable(iv.Max)) {
		// Non-comparable bounds cannot prove these keys miss: keep.
		return true
	}
	// Binary search for the first key ≥ iv.Min (or index 0 if unbounded).
	lo := 0
	if !iv.Min.IsNull() {
		lo = sort.Search(len(keys), func(i int) bool {
			cmp := keys[i].Compare(iv.Min)
			return cmp > 0 || (cmp == 0 && iv.MinInc)
		})
	}
	if lo >= len(keys) {
		return false
	}
	return iv.Contains(keys[lo])
}

// keySet is one executor's form of a materialized side's join keys in one
// column, which runtime block pruning (blockPrune) probes: the kernel
// path's key codes (cachedKeys), the reference path's boxed values
// (boxedKeys).
type keySet interface {
	// inInterval reports whether some key lies in iv, a zone's interval
	// on the pruned table's join column.
	inInterval(iv *predicate.Interval) bool
	// indexed returns the blocks of ts holding a key in col, read through
	// a secondary index; ok is false when the probe cannot run (no reducer
	// is built, and nothing is pruned).
	indexed(e *Engine, ts *tableState, col edgeSide) (blocks map[int32]bool, ok bool)
}

// blockPrune applies semi-join reduction at the block level before ts is
// read: for every join edge connecting ts to an alias of another table
// already read, in a direction ts may be pruned, the materialized side's
// exact keys (keys) prune ts's candidate blocks whose join-column zone
// interval holds no key, or, under a secondary index on the column, the
// blocks holding no key. Returns the number of reducers built (each costs
// setup time).
func (e *Engine) blockPrune(b *boundQuery, ts *tableState, keys func(src edgeSide) keySet) int {
	reducers := 0
	for i := range b.edges {
		ed := &b.edges[i]
		var mine, other edgeSide
		switch {
		case ed.right.alias.ts == ts && ed.rByL:
			mine, other = ed.right, ed.left
		case ed.left.alias.ts == ts && ed.lByR:
			mine, other = ed.left, ed.right
		default:
			continue
		}
		if ots := other.alias.ts; !ots.read || ots == ts || other.ord < 0 {
			// A missing column on the materialized side leaves no keys to
			// reduce with: an empty key set would prune every block.
			continue
		}
		var keep func(id int) bool
		switch {
		case e.opts.SecondaryIndexes[ts.table] == mine.col:
			if mine.ord < 0 {
				continue
			}
			blocks, ok := keys(other).indexed(e, ts, mine)
			if !ok {
				continue
			}
			keep = func(id int) bool { return blocks[int32(id)] }
		case e.opts.SemiJoinReduction:
			ks := keys(other)
			keep = func(id int) bool { return ks.inInterval(ts.zones[id].Ranges().At(mine.ord)) }
		default:
			// SI configured for a different column only: no reducer is
			// built, so no setup time is charged.
			continue
		}
		reducers++
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			if keep(id) {
				kept = append(kept, id)
			}
		}
		ts.candidates = kept
	}
	return reducers
}

// applyDiPs prunes candidate blocks at plan time using data-induced
// predicates [22]: the zone intervals of one side's candidate blocks on the
// join column are merged into a range set of at most rangeSetSize ranges
// and pushed to the other side, whose blocks are dropped when their join
// column cannot intersect any range. Passes repeat until a fixpoint (or the
// pass cap) since pruning one table can enable pruning another.
func (e *Engine) applyDiPs(b *boundQuery) {
	for pass := 0; pass < maxReductionPasses; pass++ {
		changed := false
		for i := range b.edges {
			ed := &b.edges[i]
			if ed.rByL && dipPrune(ed.left, ed.right) {
				changed = true
			}
			if ed.lByR && dipPrune(ed.right, ed.left) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// dipPrune pushes a range set from the source side's table to the target
// side's table; reports whether any block was pruned.
func dipPrune(srcSide, dstSide edgeSide) bool {
	src, dst := srcSide.alias.ts, dstSide.alias.ts
	if src == dst {
		return false
	}
	var intervals []predicate.Interval
	for _, id := range src.candidates {
		if iv := src.zones[id].Ranges().At(srcSide.ord); !iv.Empty {
			intervals = append(intervals, *iv)
		}
	}
	ranges := mergeRanges(intervals, rangeSetSize)
	if ranges == nil {
		// No candidate source blocks: the diP is empty and every target
		// block is prunable (for inner-style edges the join yields
		// nothing from unmatched rows).
		if len(dst.candidates) == 0 {
			return false
		}
		dst.candidates = dst.candidates[:0]
		return true
	}
	kept := dst.candidates[:0]
	pruned := false
	for _, id := range dst.candidates {
		iv := dst.zones[id].Ranges().At(dstSide.ord)
		ok := false
		for i := range ranges {
			// Non-comparable bounds cannot prove disjointness: keep the
			// block rather than panic inside Intersect.
			if r := &ranges[i]; !boundsComparable(iv, r) || !iv.Intersect(*r).Empty {
				ok = true
				break
			}
		}
		if ok {
			kept = append(kept, id)
		} else {
			pruned = true
		}
	}
	dst.candidates = kept
	return pruned
}

// mergeRanges unions the intervals and coalesces them into at most k
// ranges, merging the closest pairs first (approximated by sorting on Min
// and greedily merging smallest gaps).
func mergeRanges(intervals []predicate.Interval, k int) []predicate.Interval {
	if len(intervals) == 0 {
		return nil
	}
	sort.Slice(intervals, func(i, j int) bool {
		a, b := intervals[i].Min, intervals[j].Min
		switch {
		case a.IsNull() && b.IsNull():
			return false
		case a.IsNull():
			return true
		case b.IsNull():
			return false
		case !a.Comparable(b):
			return a.Kind() < b.Kind()
		default:
			return a.Less(b)
		}
	})
	// First merge overlapping/touching intervals.
	merged := []predicate.Interval{intervals[0]}
	for _, iv := range intervals[1:] {
		last := &merged[len(merged)-1]
		if overlapsOrTouches(*last, iv) {
			*last = predicate.Hull(*last, iv)
		} else {
			merged = append(merged, iv)
		}
	}
	// Then coalesce to k ranges by repeatedly merging adjacent pairs (they
	// are sorted, so adjacent pairs have the smallest gaps in rank order).
	for len(merged) > k {
		next := make([]predicate.Interval, 0, (len(merged)+1)/2)
		for i := 0; i < len(merged); i += 2 {
			if i+1 < len(merged) {
				next = append(next, predicate.Hull(merged[i], merged[i+1]))
			} else {
				next = append(next, merged[i])
			}
		}
		merged = next
	}
	return merged
}

func touching(a, b predicate.Interval) bool {
	if a.Max.IsNull() || b.Min.IsNull() || !a.Max.Comparable(b.Min) {
		return false
	}
	return a.Max.Compare(b.Min) >= 0
}

// boundsComparable reports whether every pair of bounds across a and b can
// be ordered (Null bounds order against anything).
func boundsComparable(a, b *predicate.Interval) bool {
	return a.Min.Comparable(b.Min) && a.Min.Comparable(b.Max) &&
		a.Max.Comparable(b.Min) && a.Max.Comparable(b.Max)
}

// overlapsOrTouches reports whether a and b can be unioned into one
// contiguous interval. Intervals with non-comparable bounds (mixed value
// kinds) are treated as disjoint here — Interval.Intersect would panic on
// them — and only merge, conservatively, in the coalesce phase via
// predicate.Hull.
func overlapsOrTouches(a, b predicate.Interval) bool {
	if !boundsComparable(&a, &b) {
		return false
	}
	return !a.Intersect(b).Empty || touching(a, b)
}

// semanticReduce applies the query's join semantics to the filtered row
// sets: inner and semi joins reduce both sides to matching rows, one-sided
// outer joins reduce only the non-preserved side, and anti-semi joins keep
// the preserved side's rows without a match. It runs the reduction
// schedule (reduce), each step over boxed key maps. Returns the number of
// tuple probes performed (for the cost model).
func (e *Engine) semanticReduce(b *boundQuery, aliases []*aliasState) int {
	count := func(a *boundAlias) int { return len(aliases[a.idx].rows) }
	return e.reduce(b, count, func(_ int, st reduceStep, _ bool) bool {
		ed := &b.edges[st.join]
		tgt, src := ends(st, ed.left, ed.right)
		s := aliases[src.alias.idx]
		return reduceTo(aliases[tgt.alias.idx], tgt.alias.ts.tbl, tgt.ord, keysOf(src.alias.ts.tbl, s.rows, src.ord), st.anti)
	})
}

// reduceTo keeps only as.rows whose key in column ci has membership in keys
// matching want (want=false keeps members, i.e. matching rows; want=true
// keeps non-members, i.e. anti-join survivors). Null keys never match, so
// they survive only anti joins. Reports whether the row set shrank.
func reduceTo(as *aliasState, tbl *relation.Table, ci int, keys map[value.Value]struct{}, anti bool) bool {
	kept := as.rows[:0]
	for _, r := range as.rows {
		v := tbl.Value(int(r), ci)
		_, member := keys[v]
		if v.IsNull() {
			member = false
		}
		if member != anti {
			kept = append(kept, r)
		}
	}
	shrank := len(kept) != len(as.rows)
	as.rows = kept
	return shrank
}
