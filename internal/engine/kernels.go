package engine

import (
	"slices"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
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
//   - runtime block pruning probes zone intervals and secondary indexes
//     with the key codes (cachedKeys), through the walk over the join
//     edges both paths share (blockPrune).
//
// Both paths start from the bound query (bind) and the shared prune stage
// (prune). Every decision is pinned to the scalar path by identity tests
// asserting byte-identical Results across whole workloads.

// vecAlias tracks one table reference in the vectorized path: surviving
// rows live in a dense bitset over the positions of the scanned layout
// (order), and join-key sets derived from them are cached per column,
// invalidated by a version counter that bumps whenever the row set
// shrinks.
type vecAlias struct {
	table   string
	order   *block.RowOrder
	set     bitmap.Dense
	setBuf  *denseBuf // pooled backing of set, released after the query
	count   int
	version int
	keys    map[string]*cachedKeys
}

// cachedKeys is a snapshot of one alias's distinct join keys in one
// column, src: the codes of the column's dictionary that the alias's rows
// hold (NULL and NaN rows hold none), ascending. Codes are ranks, so
// ascending codes are ascending values. Runtime block pruning reads it (it
// is the kernel path's keySet); the semijoin strategies read the alias's
// rows directly.
type cachedKeys struct {
	version int
	src     colKey
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
	ck := &cachedKeys{version: a.version, src: colKey{a.table, col}, dict: d, codes: make([]int32, 0, present.Count())}
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

// executeKernel stages a bound query through the vectorized kernels.
func (e *Engine) executeKernel(b *boundQuery) (*Result, error) {
	if err := e.prune(b); err != nil {
		return nil, err
	}
	vec := make([]*vecAlias, len(b.aliases))
	for i, a := range b.aliases {
		vec[i] = &vecAlias{table: a.ts.table, keys: map[string]*cachedKeys{}}
	}

	// Compile each table's scan (literals are translated into the stored
	// representation once per query) and pin the layout it reads.
	for _, ts := range b.tables {
		if ts.scan = e.store.CompileScan(ts.table, ts.filters); ts.scan == nil {
			return nil, errNoLayout(ts.table)
		}
		var err error
		if ts.order, err = ts.scan.RowOrder(); err != nil {
			return nil, err
		}
	}

	reducers := 0
	for _, ts := range matOrderOf(b) {
		if e.opts.SemiJoinReduction || e.opts.SecondaryIndexes[ts.table] != "" {
			reducers += e.blockPrune(b, ts, func(src edgeSide) keySet {
				return e.keysFor(vec[src.alias.idx], src.col)
			})
		}
		if err := e.scanKernel(ts, vec); err != nil {
			return nil, err
		}
	}

	joinProbes := e.reduceKernel(b, vec)

	// The aggregate folds consume the alias survivor masks, so the pooled
	// masks are released only after folding.
	aggs, err := e.foldAggregates(b, func(f *foldSpec) ([]AggValue, error) {
		return e.foldAlias(f, vec[f.alias], b.aliases[f.alias].ts.candidates)
	})
	for _, a := range vec {
		if a.setBuf != nil {
			putDense(a.setBuf)
		}
	}
	if err != nil {
		return nil, err
	}
	return e.assemble(b, func(a *boundAlias) int { return vec[a.idx].count }, aggs, joinProbes, reducers), nil
}

// scanKernel meters the reads of the table's candidate blocks and computes
// each alias's filtered row set as one dense bitset over the scan's
// positions: ScanBlock meters each read, reports the block's row count,
// and evaluates every alias's filter straight into the alias's words of
// the block.
func (e *Engine) scanKernel(ts *tableState, vec []*vecAlias) error {
	aliases := make([]*vecAlias, len(ts.aliases))
	for i, ba := range ts.aliases {
		a := vec[ba.idx]
		a.order = ts.order
		a.setBuf = grabDense(ts.order.Words() << 6)
		a.set = a.setBuf.dense()
		aliases[i] = a
	}
	masks := make([][]uint64, len(aliases))
	for _, id := range ts.candidates {
		for i, a := range aliases {
			masks[i] = ts.order.Block(a.set, id)
		}
		n, err := ts.scan.ScanBlock(id, masks)
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

// inInterval probes the key codes against a zone interval
// (anyCodeInInterval).
func (ck *cachedKeys) inInterval(iv *predicate.Interval) bool {
	return anyCodeInInterval(ck.dict, ck.codes, iv)
}

// indexed is the secondary-index probe in code space: the keys' codes
// translate into slots of the target column's dictionary, whose postings
// name the positions holding them, whose blocks it returns.
func (ck *cachedKeys) indexed(e *Engine, ts *tableState, col edgeSide) (map[int32]bool, bool) {
	td := e.dictFor(ts.table, col.col)
	xl := e.xlateFor(ck.src, ck.dict, colKey{ts.table, col.col}, td)
	tp := e.postingsFor(ts.table, col.col, ts.order)
	blocks := map[int32]bool{}
	for _, c := range ck.codes {
		if s := xl.slot(c); s != 0 {
			for _, p := range tp.of(s - 1) {
				blocks[int32(ts.order.BlockOf(int(p)))] = true
			}
		}
	}
	return blocks, true
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

// reduceKernel is semantic reduction over the vectorized alias state: the
// schedule, passes and probe accounting of reduce, with every step run by
// the cost-chosen semijoin operator (semijoin.go). On a repeated schedule,
// a step whose source and target are unchanged since it last ran is
// skipped: reduction is idempotent, so it would remove nothing.
func (e *Engine) reduceKernel(b *boundQuery, vec []*vecAlias) int {
	type ran struct {
		src, tgt int // the versions the step read and left
		ok       bool
	}
	var last []ran // by step, made on a repeated schedule's first step
	count := func(a *boundAlias) int { return vec[a.idx].count }
	return e.reduce(b, count, func(i int, st reduceStep, repeat bool) bool {
		ed := &b.edges[st.join]
		tgt, src := ends(st, ed.left, ed.right)
		s := semijoin{tgt: vec[tgt.alias.idx], src: vec[src.alias.idx], tgtCol: tgt.col, srcCol: src.col, anti: st.anti}
		if repeat && last == nil {
			last = make([]ran, 2*len(b.edges)) // an edge has at most two steps
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
