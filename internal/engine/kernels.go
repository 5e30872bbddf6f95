package engine

import (
	"fmt"
	"slices"

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
//   - filter evaluation yields one dense bit mask per (alias, table) over
//     the layout's positions (block.RowOrder: block by block, each block
//     word-aligned), each block's words filled in place by the backend's
//     compiled block.Scan;
//   - join keys are dictionary codes (relation.ColumnDict, cached on the
//     Engine like the secondary-index state), so semantic reduction runs
//     each semijoin as a cost-chosen code kernel (semijoin.go) instead of
//     probing boxed value.Value map keys, in two sweeps over an acyclic
//     join graph and otherwise in repeated passes (schedule.go) that skip
//     re-reducing a side whose inputs are provably unchanged;
//   - zone-map pruning compiles each filter's range evaluator once
//     (predicate.CompileRanges) and sweeps all candidate blocks in one
//     pass.
//
// Every decision is pinned to the scalar path by identity tests asserting
// byte-identical Results across whole workloads.

// vecAlias tracks one table reference in the vectorized path: surviving
// rows live in a dense bitset over the positions of the scanned layout
// (order), and join-key sets derived from them are cached per column,
// invalidated by a version counter that bumps whenever the row set
// shrinks.
type vecAlias struct {
	alias   string
	table   string
	filter  predicate.Predicate
	order   *block.RowOrder
	set     bitmap.Dense
	setBuf  *denseBuf // pooled backing of set, released after the query
	count   int
	version int
	keys    map[string]*cachedKeys
}

// cachedKeys is a snapshot of one alias's distinct join keys in one
// column: the codes of the column's dictionary that the alias's rows hold
// (NULL and NaN rows hold none), ascending. Codes are ranks, so ascending
// codes are ascending values. Runtime block pruning reads it; the semijoin
// strategies read the alias's rows directly.
type cachedKeys struct {
	version int
	dict    *relation.ColumnDict
	codes   []int32
}

// keysFor returns a's key snapshot for col, reusing the cached one while
// a's row set is unchanged ("dirty alias" tracking: a clean version means
// the expensive extraction can be skipped entirely). col must be a column
// of a's table.
func (e *Engine) keysFor(a *vecAlias, col string) *cachedKeys {
	if ck, ok := a.keys[col]; ok && ck.version == a.version {
		return ck
	}
	d := e.dictFor(a.table, col)
	codes := e.codesFor(a.table, col, a.order)
	buf := grabDense(d.NumCodes())
	present := buf.dense()
	a.set.ForEach(func(p int) {
		if c := codes[p]; c >= 0 {
			present.Set(int(c))
		}
	})
	ck := &cachedKeys{version: a.version, dict: d, codes: make([]int32, 0, present.Count())}
	present.ForEach(func(c int) { ck.codes = append(ck.codes, int32(c)) })
	putDense(buf)
	a.keys[col] = ck
	return ck
}

// dictFor returns the cached dictionary encoding of table.col, nil when
// the table has no such column. The failure is cached too, so a missing
// column is not retried on every query.
func (e *Engine) dictFor(table, col string) *relation.ColumnDict {
	return cached(&e.mu, e.dicts, colKey{table, col}, nil, func() *relation.ColumnDict {
		d, err := relation.BuildColumnDict(e.ds.Table(table), col)
		if err != nil {
			return nil
		}
		return d
	})
}

// codesFor returns the dictionary codes of table.col laid out by order's
// positions: -1 at NULL and NaN rows and at padding. It is cached per
// layout.
func (e *Engine) codesFor(table, col string, order *block.RowOrder) []int32 {
	return cachedOn(&e.mu, e.codes, colKey{table, col}, order, func() []int32 {
		d := e.dictFor(table, col)
		out := make([]int32, len(order.Rows))
		for p, r := range order.Rows {
			out[p] = -1
			if r >= 0 {
				out[p] = d.Code(int(r))
			}
		}
		return out
	})
}

// groupDictFor is dictFor for a GROUP BY column: nil for a float column,
// whose groups are slotted by first sight instead. A join dictionary
// gives NaN rows no code and ±0 one code labelled +0, while a float group
// keeps NaN as its own group and the first survivor's signed zero as the
// label.
func (e *Engine) groupDictFor(table, col string) *relation.ColumnDict {
	if d := e.dictFor(table, col); d != nil && d.Kind != value.KindFloat {
		return d
	}
	return nil
}

// executeKernel stages a query through the vectorized kernels.
func (e *Engine) executeKernel(q *workload.Query) (*Result, error) {
	tables, order, err := e.plan(q)
	if err != nil {
		return nil, err
	}

	vecAliases := map[string]*vecAlias{}
	byTable := map[string][]*vecAlias{}
	filters := map[string][]predicate.Predicate{} // parallel to byTable
	for _, alias := range q.Aliases() {
		base := q.BaseTable(alias)
		a := &vecAlias{alias: alias, table: base, filter: q.FilterOn(alias),
			keys: map[string]*cachedKeys{}}
		vecAliases[alias] = a
		byTable[base] = append(byTable[base], a)
		filters[base] = append(filters[base], a.filter)
	}
	for _, name := range order {
		e.zonePrune(tables[name], filters[name])
	}

	// diPs: plan-time pruning from zone-map range sets (§3.1.1).
	if e.opts.DiPs {
		e.applyDiPs(q, tables)
	}
	for _, ts := range tables {
		ts.afterDiPs = len(ts.candidates)
	}

	// Compile each table's scan (literals are translated into the stored
	// representation once per query) and pin the layout it reads.
	scans := make(map[string]block.Scan, len(order))
	for _, name := range order {
		scan := e.store.CompileScan(name, filters[name])
		if scan == nil {
			return nil, errNoLayout(name)
		}
		if tables[name].order, err = scan.RowOrder(); err != nil {
			return nil, err
		}
		scans[name] = scan
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

// zonePrune is batch zone-map pruning: each filter's zone evaluator is
// compiled once, bound to the table's column ordinals, and every candidate
// block swept through them in one pass. A block survives if any alias's
// filter might match it.
func (e *Engine) zonePrune(ts *tableState, filters []predicate.Predicate) {
	schema, zones := e.ds.Table(ts.table).Schema(), e.store.Zones(ts.table)
	fns := make([]predicate.ZoneEval, len(filters))
	for i, f := range filters {
		fns[i] = predicate.CompileRanges(f, schema)
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
	ts.candidates, ts.afterZoneMap = kept, len(kept)
}

// scanKernel meters the reads of the table's candidate blocks and computes
// each alias's filtered row set as one dense bitset over the scan's
// positions: ScanBlock meters each read, reports the block's row count,
// and evaluates every alias's filter straight into the alias's words of
// the block.
func (e *Engine) scanKernel(ts *tableState, aliases []*vecAlias, scan block.Scan) error {
	if e.ds.Table(ts.table) == nil {
		return fmt.Errorf("engine: dataset missing table %q", ts.table)
	}
	masks := make([][]uint64, len(aliases))
	for _, a := range aliases {
		a.order = ts.order
		a.setBuf = grabDense(ts.order.Words() << 6)
		a.set = a.setBuf.dense()
	}
	for _, id := range ts.candidates {
		for i, a := range aliases {
			masks[i] = ts.order.Block(a.set, id)
		}
		n, err := scan.ScanBlock(id, masks)
		if err != nil {
			return err
		}
		ts.blocksRead++
		ts.rowsRead += n
	}
	for _, a := range aliases {
		a.count = a.set.Count()
	}
	ts.read = true
	return nil
}

// blockPruneKernel is runtimeBlockPrune over vectorized alias state: the
// materialized side's key set is its cached key codes, which probe each
// zone interval in code space (anyCodeInInterval) and, under a secondary
// index, name the target rows through the target column's postings
// (indexPrune).
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
		ck := e.keysFor(other, otherCol)
		if e.opts.SecondaryIndexes[ts.table] == myCol {
			if e.indexPrune(ts, myCol, colKey{other.table, otherCol}, ck) {
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
		zones, ord := e.store.Zones(ts.table), e.zoneOrd(ts.table, myCol)
		kept := ts.candidates[:0]
		for _, id := range ts.candidates {
			if anyCodeInInterval(ck.dict, ck.codes, zones[id].Ranges().At(ord)) {
				kept = append(kept, id)
			}
		}
		ts.candidates = kept
	}
	return reducers
}

// anyCodeInInterval is anyKeyInInterval over a key set held as codes of
// d, ascending. Codes are ranks, so iv is a code range [lo, hi): each
// bound is ranked once in the dictionary (ColumnDict.Rank), and the keys
// are binary-searched for the first code at or above lo. A bound the
// keys' kind cannot be compared with keeps the block.
func anyCodeInInterval(d *relation.ColumnDict, codes []int32, iv *predicate.Interval) bool {
	if iv.Empty || len(codes) == 0 {
		return false
	}
	lo, hi, ok := int32(0), int32(d.NumCodes()), true
	if !iv.Min.IsNull() {
		lo, ok = d.Rank(iv.Min, iv.MinInc)
	}
	if !iv.Max.IsNull() && ok {
		hi, ok = d.Rank(iv.Max, !iv.MaxInc)
	}
	i, _ := slices.BinarySearch(codes, lo)
	return !ok || i < len(codes) && codes[i] < hi
}

// indexPrune is secondaryIndexPrune in code space: the source keys' codes
// translate into slots of the target column's dictionary, whose postings
// name the positions holding them, whose blocks are kept. Reports whether
// the index probe ran (false when the table has no such column).
func (e *Engine) indexPrune(ts *tableState, col string, src colKey, ck *cachedKeys) bool {
	td := e.dictFor(ts.table, col)
	if td == nil {
		return false
	}
	xl := e.xlateFor(src, ck.dict, colKey{ts.table, col}, td)
	tp := e.postingsFor(ts.table, col, ts.order)
	needed := map[int32]bool{}
	for _, c := range ck.codes {
		if s := xl.slot(c); s != 0 {
			for _, p := range tp.of(s - 1) {
				needed[int32(ts.order.BlockOf(int(p)))] = true
			}
		}
	}
	keepBlocks(ts, needed)
	return true
}

// reduceKernel is semantic reduction over the vectorized alias state: the
// schedule, passes and probe accounting of reduce, with every step run by
// the cost-chosen semijoin operator (semijoin.go). On a repeated schedule,
// a step whose source and target are unchanged since it last ran is
// skipped: reduction is idempotent, so it would remove nothing.
func (e *Engine) reduceKernel(q *workload.Query, aliases map[string]*vecAlias) int {
	type ran struct {
		src, tgt int // the versions the step read and left
		ok       bool
	}
	var last []ran // by step, made on a repeated schedule's first step
	count := func(alias string) int { return aliases[alias].count }
	return e.reduce(q, count, func(i int, st reduceStep, repeat bool) bool {
		tgt, tgtCol, src, srcCol := st.sides(q.Joins[st.join])
		s := semijoin{tgt: aliases[tgt], src: aliases[src], tgtCol: tgtCol, srcCol: srcCol, anti: st.anti}
		if repeat && last == nil {
			last = make([]ran, 2*len(q.Joins)) // an edge has at most two steps
		}
		if last != nil && last[i] == (ran{s.src.version, s.tgt.version, true}) {
			return false
		}
		srcVer := s.src.version
		shrank := e.run(s, e.prepare(s))
		if last != nil {
			last[i] = ran{srcVer, s.tgt.version, true}
		}
		return shrank
	})
}
