package engine

import (
	"mto/internal/bitmap"
	"mto/internal/predicate"
	"mto/internal/value"
	"mto/internal/workload"
)

// ExecuteReference runs q through the retained scalar execution path. It
// shares bind, the prune stage and blockPrune's walk with Execute; what
// it does its own way is what it checks: filters run over the base table
// (predicate.FillRows on each block's rows) instead of encoded pages, and
// join-key sets are boxed value maps rebuilt every reduction pass. It is
// the correctness oracle for the vectorized kernels behind Execute — the
// identity tests assert the two return byte-identical Results over whole
// workloads — and the baseline for the replay benchmark's speedup
// measurement.
func (e *Engine) ExecuteReference(q *workload.Query) (*Result, error) {
	return e.execute(q, e.executeReference)
}

// aliasState tracks one table reference during scalar (reference)
// execution.
type aliasState struct {
	rows []int32 // surviving row indexes (after scan + filters)
}

func (e *Engine) executeReference(b *boundQuery) (*Result, error) {
	if err := e.prune(b); err != nil {
		return nil, err
	}
	aliases := make([]*aliasState, len(b.aliases))
	for i := range aliases {
		aliases[i] = &aliasState{}
	}

	reducers := 0
	for _, ts := range matOrderOf(b) {
		if e.opts.SemiJoinReduction || e.opts.SecondaryIndexes[ts.table] != "" {
			reducers += e.blockPrune(b, ts, func(src edgeSide) keySet {
				return &boxedKeys{set: keysOf(src.alias.ts.tbl, aliases[src.alias.idx].rows, src.ord)}
			})
		}
		if err := e.readAndFilter(ts, aliases); err != nil {
			return nil, err
		}
	}

	joinProbes := e.semanticReduce(b, aliases)

	aggs, err := e.foldAggregates(b, func(f *foldSpec) ([]AggValue, error) {
		// The survivor list becomes a bitmap so the shared row-order pass
		// sees the exact accumulation order the kernel path uses.
		set := bitmap.NewDense(f.tbl.NumRows())
		for _, r := range aliases[f.alias].rows {
			set.Set(int(r))
		}
		return e.foldMaterialized(f, set)
	})
	if err != nil {
		return nil, err
	}
	return e.assemble(b, func(a *boundAlias) int { return len(aliases[a.idx].rows) }, aggs, joinProbes, reducers), nil
}

// readAndFilter meters the reads of the table's candidate blocks and
// computes each alias's filtered row set over the base table rows of each
// block read.
func (e *Engine) readAndFilter(ts *tableState, aliases []*aliasState) error {
	for _, id := range ts.candidates {
		blk, err := e.store.ReadBlock(ts.table, id)
		if err != nil {
			return err
		}
		ts.blocksRead++
		ts.rowsRead += blk.NumRows()
		for i, a := range ts.aliases {
			as := aliases[a.idx]
			mask := make([]uint64, (len(blk.Rows)+63)/64)
			predicate.FillRows(ts.filters[i], ts.tbl, blk.Rows, mask)
			for k, r := range blk.Rows {
				if mask[k>>6]>>(uint(k)&63)&1 == 1 {
					as.rows = append(as.rows, r)
				}
			}
		}
	}
	ts.read = true
	return nil
}

// boxedKeys is the reference path's keySet: a materialized side's join
// keys as boxed values, sorted for interval probes on first use.
type boxedKeys struct {
	set    map[value.Value]struct{}
	sorted []value.Value
}

func (k *boxedKeys) inInterval(iv *predicate.Interval) bool {
	if k.sorted == nil {
		k.sorted = sortedKeys(k.set)
	}
	return anyKeyInInterval(k.sorted, iv)
}

// indexed returns the blocks that physically contain a row whose indexed
// column matches one of the keys. Unlike zone-interval pruning, it works
// without any clustering of the join column. This is the scalar form: it
// checks every row of the table against the boxed key set. The probe
// cannot run when the backend cannot map rows to blocks.
func (k *boxedKeys) indexed(e *Engine, ts *tableState, col edgeSide) (map[int32]bool, bool) {
	blockOf := e.blockOfFor(ts.table)
	if blockOf == nil {
		return nil, false
	}
	blocks := map[int32]bool{}
	for r := 0; r < ts.tbl.NumRows(); r++ {
		if _, hit := k.set[ts.tbl.Value(r, col.ord)]; hit {
			blocks[blockOf[r]] = true
		}
	}
	return blocks, true
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
