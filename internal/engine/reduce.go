package engine

import (
	"sort"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// prunableDirections reports, for a join edge, whether blocks/rows of the
// right side can be pruned using left-side information (and vice versa)
// without changing the query result. The directions coincide with the
// predicate-induction rules of §4.1.1: a side is prunable exactly when its
// unmatched rows are irrelevant to the result.
func prunableDirections(t workload.JoinType) (rightByLeft, leftByRight bool) {
	return t.CanInduceLeftToRight(), t.CanInduceRightToLeft()
}

// keysOf collects the distinct join-key values of the alias's surviving
// rows in the named column. NULL and NaN are left out: neither matches an
// equijoin (and a NaN map key never matches a lookup anyway).
func keysOf(tbl *relation.Table, rows []int32, col string) map[value.Value]struct{} {
	ci, ok := tbl.Schema().ColumnIndex(col)
	if !ok {
		return nil
	}
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

// tableHasColumn reports whether t's schema holds col.
func tableHasColumn(t *relation.Table, col string) bool {
	_, ok := t.Schema().ColumnIndex(col)
	return ok
}

// zoneOrd is col's ordinal in table's schema, the index of its interval in
// the table's zone maps: -1, unbounded, when there is no such column.
func (e *Engine) zoneOrd(table, col string) int { return e.ds.Table(table).Schema().Ordinal(col) }

// runtimeBlockPrune applies semi-join reduction at the block level before
// ts is read: for every join edge connecting ts to an already-materialized
// table (in a prunable direction), the materialized side's exact keys prune
// ts's candidate blocks whose join-column zone interval contains no key.
// Returns the number of reducers built (each costs setup time).
func (e *Engine) runtimeBlockPrune(q *workload.Query, ts *tableState,
	aliases map[string]*aliasState, tables map[string]*tableState) int {

	reducers := 0
	for _, j := range q.Joins {
		var otherAlias, myCol, otherCol string
		rByL, lByR := prunableDirections(j.Type)
		switch {
		case aliasOnTable(q, j.Right, ts.table) && rByL:
			otherAlias, myCol, otherCol = j.Left, j.RightColumn, j.LeftColumn
		case aliasOnTable(q, j.Left, ts.table) && lByR:
			otherAlias, myCol, otherCol = j.Right, j.LeftColumn, j.RightColumn
		default:
			continue
		}
		other := aliases[otherAlias]
		otherTS := tables[other.table]
		if otherTS == nil || !otherTS.read || other.table == ts.table {
			continue
		}
		otherTbl := e.ds.Table(other.table)
		if !tableHasColumn(otherTbl, otherCol) {
			// The join column is missing from the materialized side's
			// schema: there are no keys to reduce with. Skip the edge —
			// treating the nil key set as "no keys survive" would wrongly
			// prune every candidate block.
			continue
		}
		if e.opts.SecondaryIndexes[ts.table] == myCol {
			if e.secondaryIndexPrune(ts, myCol, keysOf(otherTbl, other.rows, otherCol)) {
				reducers++
			}
			continue
		}
		if !e.opts.SemiJoinReduction {
			// SI configured for a different column only: no reducer is
			// built, so no setup time is charged.
			continue
		}
		keys := sortedKeys(keysOf(otherTbl, other.rows, otherCol))
		reducers++
		zones, ord := e.store.Zones(ts.table), e.zoneOrd(ts.table, myCol)
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			if anyKeyInInterval(keys, zones[id].Ranges().At(ord)) {
				kept = append(kept, id)
			}
		}
		ts.candidates = kept
	}
	return reducers
}

// blockOfFor returns the table's row → block ID mapping, building and
// caching it on first use. The mapping is an auxiliary-index read served
// by the backend (from the segment's row-ID pages); nil means the backend
// could not produce it, and secondary-index pruning degrades to not
// pruning.
func (e *Engine) blockOfFor(table string) []int32 {
	return cached(&e.mu, e.blockOf, table, nil, func() []int32 {
		m, err := e.store.RowToBlock(table)
		if err != nil {
			return nil
		}
		return m
	})
}

// secondaryIndexPrune keeps only candidate blocks that physically contain a
// row whose indexed column matches one of the keys. Unlike zone-interval
// pruning, it works without any clustering of the join column. This is the
// scalar form: it checks every row of the table against the boxed key set.
// Reports whether the probe ran (false when the table has no such column
// or the backend cannot map rows to blocks: no reducer is built and
// nothing is pruned).
func (e *Engine) secondaryIndexPrune(ts *tableState, col string, keys map[value.Value]struct{}) bool {
	tbl := e.ds.Table(ts.table)
	ci, ok := tbl.Schema().ColumnIndex(col)
	blockOf := e.blockOfFor(ts.table)
	if !ok || blockOf == nil {
		return false
	}
	needed := map[int32]bool{}
	for r := 0; r < tbl.NumRows(); r++ {
		if _, hit := keys[tbl.Value(r, ci)]; hit {
			needed[blockOf[r]] = true
		}
	}
	keepBlocks(ts, needed)
	return true
}

// keepBlocks keeps the candidate blocks of ts that needed names.
func keepBlocks(ts *tableState, needed map[int32]bool) {
	kept := ts.candidates[:0]
	for _, id := range ts.candidates {
		if needed[int32(id)] {
			kept = append(kept, id)
		}
	}
	ts.candidates = kept
}

func aliasOnTable(q *workload.Query, alias, table string) bool {
	return q.BaseTable(alias) == table
}

// applyDiPs prunes candidate blocks at plan time using data-induced
// predicates [22]: the zone intervals of one side's candidate blocks on the
// join column are merged into a range set of at most rangeSetSize ranges
// and pushed to the other side, whose blocks are dropped when their join
// column cannot intersect any range. Passes repeat until a fixpoint (or the
// pass cap) since pruning one table can enable pruning another.
func (e *Engine) applyDiPs(q *workload.Query, tables map[string]*tableState) {
	for pass := 0; pass < maxReductionPasses; pass++ {
		changed := false
		for _, j := range q.Joins {
			rByL, lByR := prunableDirections(j.Type)
			if rByL && e.dipPrune(q, tables, j.Left, j.LeftColumn, j.Right, j.RightColumn) {
				changed = true
			}
			if lByR && e.dipPrune(q, tables, j.Right, j.RightColumn, j.Left, j.LeftColumn) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// dipPrune pushes a range set from the source alias's table to the target
// alias's table; reports whether any block was pruned.
func (e *Engine) dipPrune(q *workload.Query, tables map[string]*tableState,
	srcAlias, srcCol, dstAlias, dstCol string) bool {

	src := tables[q.BaseTable(srcAlias)]
	dst := tables[q.BaseTable(dstAlias)]
	if src == nil || dst == nil || src.table == dst.table {
		return false
	}
	srcZones, srcOrd := e.store.Zones(src.table), e.zoneOrd(src.table, srcCol)
	var intervals []predicate.Interval
	for _, id := range src.candidates {
		if iv := srcZones[id].Ranges().At(srcOrd); !iv.Empty {
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
	dstZones, dstOrd := e.store.Zones(dst.table), e.zoneOrd(dst.table, dstCol)
	kept := dst.candidates[:0]
	pruned := false
	for _, id := range dst.candidates {
		iv := dstZones[id].Ranges().At(dstOrd)
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

// joinColumnsExist reports whether both of j's columns exist in their
// aliases' base tables.
func (e *Engine) joinColumnsExist(q *workload.Query, j workload.Join) bool {
	return tableHasColumn(e.ds.Table(q.BaseTable(j.Left)), j.LeftColumn) &&
		tableHasColumn(e.ds.Table(q.BaseTable(j.Right)), j.RightColumn)
}

// semanticReduce applies the query's join semantics to the filtered row
// sets: inner and semi joins reduce both sides to matching rows, one-sided
// outer joins reduce only the non-preserved side, and anti-semi joins keep
// the preserved side's rows without a match. It runs the reduction
// schedule (reduce), each step over boxed key maps. Returns the number of
// tuple probes performed (for the cost model).
func (e *Engine) semanticReduce(q *workload.Query, aliases map[string]*aliasState) int {
	count := func(alias string) int { return len(aliases[alias].rows) }
	return e.reduce(q, count, func(_ int, st reduceStep, _ bool) bool {
		tgt, tgtCol, src, srcCol := st.sides(q.Joins[st.join])
		t, s := aliases[tgt], aliases[src]
		return reduceTo(t, e.ds.Table(t.table), tgtCol, keysOf(e.ds.Table(s.table), s.rows, srcCol), st.anti)
	})
}

// reduceTo keeps only as.rows whose key membership in keys matches want
// (want=false keeps members, i.e. matching rows; want=true keeps
// non-members, i.e. anti-join survivors). Null keys never match, so they
// survive only anti joins. Reports whether the row set shrank.
func reduceTo(as *aliasState, tbl *relation.Table, col string, keys map[value.Value]struct{}, anti bool) bool {
	ci, ok := tbl.Schema().ColumnIndex(col)
	if !ok {
		return false
	}
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
