package engine

import (
	"fmt"
	"math/bits"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file is the vectorized execution path behind Execute. It makes the
// same staging decisions as ExecuteReference — layout routing, zone-map
// skipping, diPs, runtime block pruning, semantic reduction — but sweeps
// whole columns and key sets per step instead of walking rows through
// per-row closures:
//
//   - filter evaluation yields one dense bit mask per (alias, table): the
//     backend's compiled block.Scan fills it per candidate block for the
//     filters it supports; the few shapes it refuses run row by row, over
//     the rows of the blocks read only;
//   - join keys live as dictionary-code sets (relation.ColumnDict, cached
//     on the Engine like the secondary-index state), so semantic reduction
//     probes int32 codes instead of boxed value.Value map keys, and skips
//     re-reducing a side whose inputs are provably unchanged;
//   - zone-map pruning compiles each filter's range evaluator once
//     (predicate.CompileRanges) and sweeps all candidate blocks in one
//     pass.
//
// Every decision is pinned to the scalar path by identity tests asserting
// byte-identical Results across whole workloads.

// vecAlias tracks one table reference in the vectorized path: surviving
// rows live in a dense bitset over the base table, and join-key sets
// derived from them are cached per column, invalidated by a version
// counter that bumps whenever the row set shrinks.
type vecAlias struct {
	alias   string
	table   string
	filter  predicate.Predicate
	set     bitmap.Dense
	setBuf  *denseBuf // pooled backing of set, released after the query
	count   int
	version int
	keys    map[string]*cachedKeys
}

// cachedKeys is a snapshot of one alias's distinct non-null join keys in
// one column, in up to three interchangeable representations built
// lazily: dictionary codes (for coded membership probes), sorted raw ints
// (for zone-interval probes), and boxed values (for secondary-index
// lookups and non-encodable columns).
type cachedKeys struct {
	version int
	dict    *relation.ColumnDict // nil for non-encodable columns
	coded   bitmap.Dense         // set of dict codes; nil when dict is nil
	boxed   map[value.Value]struct{}
	ints    []int64       // sorted ascending; int dicts only
	vals    []value.Value // sorted ascending, single kind
}

// keysFor returns a's key snapshot for col, reusing the cached one while
// a's row set is unchanged ("dirty alias" tracking: a clean version means
// the expensive extraction can be skipped entirely).
func (e *Engine) keysFor(a *vecAlias, tbl *relation.Table, col string) *cachedKeys {
	if ck, ok := a.keys[col]; ok && ck.version == a.version {
		return ck
	}
	ck := &cachedKeys{version: a.version, dict: e.dictFor(a.table, col)}
	if ck.dict != nil {
		codes := ck.dict.Codes
		ck.coded = bitmap.NewDense(ck.dict.NumCodes())
		a.set.ForEach(func(r int) {
			if c := codes[r]; c >= 0 {
				ck.coded.Set(int(c))
			}
		})
	} else {
		// Non-encodable column (float keys, or a column this table does
		// not have): fall back to boxing the values directly.
		ck.boxed = map[value.Value]struct{}{}
		if ci, ok := tbl.Schema().ColumnIndex(col); ok {
			a.set.ForEach(func(r int) {
				if v := tbl.Value(r, ci); !v.IsNull() {
					ck.boxed[v] = struct{}{}
				}
			})
		}
	}
	a.keys[col] = ck
	return ck
}

// boxedKeys returns the keys as a value set (the scalar keysOf shape).
func (ck *cachedKeys) boxedKeys() map[value.Value]struct{} {
	if ck.boxed == nil {
		ck.boxed = make(map[value.Value]struct{}, ck.coded.Count())
		ck.coded.ForEach(func(c int) { ck.boxed[ck.dict.Value(int32(c))] = struct{}{} })
	}
	return ck.boxed
}

// intKeys returns the sorted raw int keys; ok is false for non-int key
// sets.
func (ck *cachedKeys) intKeys() (keys []int64, ok bool) {
	if ck.dict == nil || ck.dict.Kind != value.KindInt {
		return nil, false
	}
	if ck.ints == nil {
		ck.ints = make([]int64, 0, ck.coded.Count())
		ck.coded.ForEach(func(c int) { ck.ints = append(ck.ints, ck.dict.Ints[c]) })
	}
	return ck.ints, true
}

// valueKeys returns the keys as a sorted boxed slice (the sortedKeys
// shape). Dictionary codes are ranks, so ascending code order is already
// ascending value order.
func (ck *cachedKeys) valueKeys() []value.Value {
	if ck.vals == nil {
		if ck.dict != nil {
			ck.vals = make([]value.Value, 0, ck.coded.Count())
			ck.coded.ForEach(func(c int) { ck.vals = append(ck.vals, ck.dict.Value(int32(c))) })
		} else {
			ck.vals = sortedKeys(ck.boxed)
		}
	}
	return ck.vals
}

// dictFor returns the cached dictionary encoding of table.col, nil when
// the column cannot be encoded (float or missing). Failures are cached
// too, so unencodable columns are not retried on every query.
func (e *Engine) dictFor(table, col string) *relation.ColumnDict {
	cacheKey := table + "." + col
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.dicts[cacheKey]; ok {
		return d
	}
	d, err := relation.BuildColumnDict(e.ds.Table(table), col)
	if err != nil {
		d = nil
	}
	e.dicts[cacheKey] = d
	return d
}

// xlateFor returns the cached code translation from the target column's
// dictionary into the source column's, so target rows can probe source
// key sets without boxing a single value.
func (e *Engine) xlateFor(tgtTable, tgtCol string, tgt *relation.ColumnDict,
	srcTable, srcCol string, src *relation.ColumnDict) []int32 {

	cacheKey := tgtTable + "." + tgtCol + "|" + srcTable + "." + srcCol
	e.mu.Lock()
	defer e.mu.Unlock()
	if xl, ok := e.xlate[cacheKey]; ok {
		return xl
	}
	xl := relation.TranslateCodes(tgt, src)
	e.xlate[cacheKey] = xl
	return xl
}

// executeKernel stages a query through the vectorized kernels.
func (e *Engine) executeKernel(q *workload.Query) (*Result, error) {
	tables, order, err := e.plan(q)
	if err != nil {
		return nil, err
	}

	vecAliases := map[string]*vecAlias{}
	byTable := map[string][]*vecAlias{}
	for _, alias := range q.Aliases() {
		base := q.BaseTable(alias)
		a := &vecAlias{alias: alias, table: base, filter: q.FilterOn(alias),
			keys: map[string]*cachedKeys{}}
		vecAliases[alias] = a
		byTable[base] = append(byTable[base], a)
	}

	// Batch zone-map pruning: compile each filter's range evaluator once,
	// then sweep all of the table's candidate blocks in one pass. A block
	// survives if any alias's filter might match it.
	for _, name := range order {
		ts := tables[name]
		zones := e.store.Zones(name)
		fns := make([]func(predicate.Ranges) predicate.Tri, len(byTable[name]))
		for i, a := range byTable[name] {
			fns[i] = predicate.CompileRanges(a.filter)
		}
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			rs := zones[id].Ranges()
			for _, fn := range fns {
				if fn(rs) != predicate.TriFalse {
					kept = append(kept, id)
					break
				}
			}
		}
		ts.candidates = kept
		ts.afterZoneMap = len(kept)
	}

	// diPs: plan-time pruning from zone-map range sets (§3.1.1).
	if e.opts.DiPs {
		e.applyDiPs(q, tables)
	}
	for _, ts := range tables {
		ts.afterDiPs = len(ts.candidates)
	}

	// Compile each table's scan (literals are translated into the stored
	// representation once per query) and queue readahead for the admitted
	// candidate blocks. Runtime pruning below may still shrink the sets —
	// prefetching a superset is harmless, it only warms the cache.
	scans := make(map[string]block.Scan, len(order))
	for _, name := range order {
		filters := make([]predicate.Predicate, len(byTable[name]))
		for i, a := range byTable[name] {
			filters[i] = a.filter
		}
		scan := e.store.CompileScan(name, filters)
		if scan == nil {
			return nil, errNoLayout(name)
		}
		scans[name] = scan
		if ids := tables[name].candidates; len(ids) > 0 {
			scan.Prefetch(ids)
		}
	}

	reducers := 0
	for _, name := range matOrderOf(tables, order) {
		ts := tables[name]
		if e.opts.SemiJoinReduction || e.opts.SecondaryIndexes[name] != "" {
			reducers += e.blockPruneKernel(q, ts, vecAliases, tables)
		}
		if err := e.scanKernel(ts, byTable[name], scans[name]); err != nil {
			return nil, err
		}
	}

	joinProbes := e.reduceKernel(q, vecAliases)

	surviving := make(map[string]int, len(vecAliases))
	for alias, a := range vecAliases {
		surviving[alias] = a.count
	}
	// The aggregate folds consume the alias survivor masks, so the pooled
	// masks are released only after folding.
	aggs, err := e.foldAggregates(q, func(alias string, specs []workload.Aggregate) ([]AggValue, error) {
		a := vecAliases[alias]
		return e.foldAlias(q.GroupBy, a, tables[a.table].candidates, specs)
	})
	for _, a := range vecAliases {
		if a.setBuf != nil {
			putDense(a.setBuf)
		}
	}
	if err != nil {
		return nil, err
	}
	res := e.assemble(q, order, tables, surviving, joinProbes, reducers)
	res.Aggregates = aggs
	return res, nil
}

// scanKernel meters the reads of the table's candidate blocks and computes
// each alias's filtered row set as one dense bitset.
//
// ScanBlock meters each read, reports the block's rows, and ORs the
// block-local survivors of every filter the backend supports into the
// alias's mask. A filter it refuses is compiled once into a per-row
// evaluator and applied to the row IDs ScanBlock returned — it never sees a
// row outside a block that was read. Either route yields bit-identical
// alias masks.
func (e *Engine) scanKernel(ts *tableState, aliases []*vecAlias, scan block.Scan) error {
	tbl := e.ds.Table(ts.table)
	if tbl == nil {
		return fmt.Errorf("engine: dataset missing table %q", ts.table)
	}
	n := tbl.NumRows()
	supported := scan.Supported()
	scanMasks := make([][]uint64, len(aliases))
	residual := make([]func(int) bool, len(aliases)) // per-row route, else nil
	for i, a := range aliases {
		a.setBuf = grabDense(n)
		a.set = a.setBuf.dense()
		if supported[i] {
			scanMasks[i] = a.set
		} else {
			residual[i] = predicate.Compile(a.filter, tbl)
		}
	}
	residualRows := 0
	for _, id := range ts.candidates {
		rows, err := scan.ScanBlock(id, scanMasks)
		if err != nil {
			return err
		}
		ts.blocksRead++
		ts.rowsRead += len(rows)
		for i, match := range residual {
			if match == nil {
				continue
			}
			residualRows += len(rows)
			set := aliases[i].set
			for _, r := range rows {
				if match(int(r)) {
					set.Set(int(r))
				}
			}
		}
	}
	if residualRows > 0 {
		e.counters.residualFilterRows.Add(int64(residualRows))
	}
	for _, a := range aliases {
		a.count = a.set.Count()
	}
	ts.read = true
	return nil
}

// blockPruneKernel is runtimeBlockPrune over vectorized alias state: the
// materialized side's key set comes from the per-column cache, and int
// keys probe zone intervals through a primitive binary search instead of
// boxed comparisons.
func (e *Engine) blockPruneKernel(q *workload.Query, ts *tableState,
	aliases map[string]*vecAlias, tables map[string]*tableState) int {

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
			// No keys to reduce with (see runtimeBlockPrune).
			continue
		}
		ck := e.keysFor(other, otherTbl, otherCol)
		if e.opts.SecondaryIndexes[ts.table] == myCol {
			if e.secondaryIndexPrune(ts, myCol, ck.boxedKeys()) {
				reducers++
			}
			continue
		}
		if !e.opts.SemiJoinReduction {
			// SI configured for a different column only: no reducer is
			// built, so no setup time is charged.
			continue
		}
		reducers++
		zones := e.store.Zones(ts.table)
		ints, isInt := ck.intKeys()
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			iv := zones[id].Column(myCol)
			hit, handled := false, false
			if isInt {
				hit, handled = anyIntKeyInInterval(ints, iv)
			}
			if !handled {
				hit = anyKeyInInterval(ck.valueKeys(), iv)
			}
			if hit {
				kept = append(kept, id)
			}
		}
		ts.candidates = kept
	}
	return reducers
}

// dirMemo records, per join direction, the (source, target) versions as of
// the last time the target was reduced by the source's keys. Reduction is
// idempotent, so while both versions are unchanged re-running the scan is
// provably a no-op and is skipped; the probe charges still accrue, keeping
// the cost model identical to the reference path.
type dirMemo struct {
	srcVer, tgtVer int
	valid          bool
}

// reduceKernel is the vectorized semantic-reduction fixpoint: identical
// pass structure and probe accounting to semanticReduce, with row scans
// running over coded bitsets and skipped when the direction's inputs are
// unchanged.
func (e *Engine) reduceKernel(q *workload.Query, aliases map[string]*vecAlias) int {
	// memo[2i] covers reducing join i's left side by the right's keys;
	// memo[2i+1] the opposite direction.
	memo := make([]dirMemo, 2*len(q.Joins))
	probes := 0
	for pass := 0; pass < e.opts.MaxReductionPasses; pass++ {
		changed := false
		for i, j := range q.Joins {
			l, r := aliases[j.Left], aliases[j.Right]
			lt, rt := e.ds.Table(l.table), e.ds.Table(r.table)
			if !tableHasColumn(lt, j.LeftColumn) || !tableHasColumn(rt, j.RightColumn) {
				// A missing join column yields no key set; reducing by it
				// would wrongly drop every row. Skip the edge (see
				// semanticReduce).
				continue
			}
			lByR, rByL := &memo[2*i], &memo[2*i+1]
			switch j.Type {
			case workload.InnerJoin, workload.SemiJoin:
				// Snapshot both key sets before either side shrinks,
				// like the scalar path.
				lk, lv := e.keysFor(l, lt, j.LeftColumn), l.version
				rk, rv := e.keysFor(r, rt, j.RightColumn), r.version
				probes += l.count + r.count
				if e.applyReduce(l, lt, j.LeftColumn, r.table, j.RightColumn, rk, rv, false, lByR) {
					changed = true
				}
				if e.applyReduce(r, rt, j.RightColumn, l.table, j.LeftColumn, lk, lv, false, rByL) {
					changed = true
				}
			case workload.LeftOuterJoin:
				lk, lv := e.keysFor(l, lt, j.LeftColumn), l.version
				probes += r.count
				if e.applyReduce(r, rt, j.RightColumn, l.table, j.LeftColumn, lk, lv, false, rByL) {
					changed = true
				}
			case workload.RightOuterJoin:
				rk, rv := e.keysFor(r, rt, j.RightColumn), r.version
				probes += l.count
				if e.applyReduce(l, lt, j.LeftColumn, r.table, j.RightColumn, rk, rv, false, lByR) {
					changed = true
				}
			case workload.LeftAntiSemiJoin:
				rk, rv := e.keysFor(r, rt, j.RightColumn), r.version
				probes += l.count
				if e.applyReduce(l, lt, j.LeftColumn, r.table, j.RightColumn, rk, rv, true, lByR) {
					changed = true
				}
			case workload.RightAntiSemiJoin:
				lk, lv := e.keysFor(l, lt, j.LeftColumn), l.version
				probes += r.count
				if e.applyReduce(r, rt, j.RightColumn, l.table, j.LeftColumn, lk, lv, true, rByL) {
					changed = true
				}
			case workload.FullOuterJoin:
				// Both sides preserved: no reduction, and probes accrue
				// once (see semanticReduce).
				if pass == 0 {
					probes += l.count + r.count
				}
			}
		}
		if !changed {
			break
		}
	}
	return probes
}

// applyReduce keeps only tgt rows whose tgtCol key membership in the
// source key set matches (anti keeps non-members), mirroring the scalar
// reduceTo. srcVer is the source alias's version at key-snapshot time; the
// scan is skipped when the memo proves both sides unchanged since the
// direction last ran. Reports whether the row set shrank.
func (e *Engine) applyReduce(tgt *vecAlias, tgtTbl *relation.Table, tgtCol, srcTable, srcCol string,
	src *cachedKeys, srcVer int, anti bool, m *dirMemo) bool {

	if m.valid && m.srcVer == srcVer && m.tgtVer == tgt.version {
		return false
	}
	td := e.dictFor(tgt.table, tgtCol)
	removed := false
	if td != nil && src.dict != nil {
		xl := e.xlateFor(tgt.table, tgtCol, td, srcTable, srcCol, src.dict)
		removed = reduceCoded(tgt.set, td.Codes, xl, src.coded, anti)
	} else {
		removed = reduceBoxed(tgt.set, tgtTbl, tgtCol, src.boxedKeys(), anti)
	}
	if removed {
		tgt.count = tgt.set.Count()
		tgt.version++
	}
	*m = dirMemo{srcVer: srcVer, tgtVer: tgt.version, valid: true}
	return removed
}

// reduceCoded drops set rows whose membership — row code, translated into
// the source dictionary, probed against the source code set — equals anti.
// Null rows (code -1) are never members, matching the scalar reduceTo.
func reduceCoded(set bitmap.Dense, codes, xl []int32, srcCodes bitmap.Dense, anti bool) bool {
	removed := false
	for w := range set {
		word := set[w]
		for word != 0 {
			t := word & -word
			r := w<<6 | bits.TrailingZeros64(word)
			word ^= t
			member := false
			if c := codes[r]; c >= 0 {
				if sc := xl[c]; sc >= 0 {
					member = srcCodes.Get(int(sc))
				}
			}
			if member == anti {
				set[w] &^= t
				removed = true
			}
		}
	}
	return removed
}

// reduceBoxed is the boxed fallback for non-encodable columns, with the
// exact membership semantics of the scalar reduceTo.
func reduceBoxed(set bitmap.Dense, tbl *relation.Table, col string,
	keys map[value.Value]struct{}, anti bool) bool {

	ci, ok := tbl.Schema().ColumnIndex(col)
	if !ok {
		return false
	}
	removed := false
	for w := range set {
		word := set[w]
		for word != 0 {
			t := word & -word
			r := w<<6 | bits.TrailingZeros64(word)
			word ^= t
			v := tbl.Value(r, ci)
			_, member := keys[v]
			if v.IsNull() {
				member = false
			}
			if member == anti {
				set[w] &^= t
				removed = true
			}
		}
	}
	return removed
}
