package engine

import (
	"fmt"

	"mto/internal/predicate"
	"mto/internal/workload"
)

// ExecuteReference runs q through the retained scalar execution path:
// filters run over the base table (predicate.FillRows on each block's
// rows) instead of encoded pages, zone maps are probed block by block, and
// join-key sets are boxed value maps rebuilt every reduction pass. It exists as the correctness oracle for the
// vectorized kernels behind Execute — the identity tests assert the two
// return byte-identical Results over whole workloads — and as the baseline
// for the replay benchmark's speedup measurement.
func (e *Engine) ExecuteReference(q *workload.Query) (*Result, error) {
	res, err := e.executeReference(q)
	e.counters.note(res, err)
	return res, err
}

func (e *Engine) executeReference(q *workload.Query) (*Result, error) {
	tables, order, err := e.plan(q)
	if err != nil {
		return nil, err
	}

	aliasStates := map[string]*aliasState{}
	byTable := map[string][]*aliasState{}
	filters := map[string][]predicate.Predicate{}
	for _, alias := range q.Aliases() {
		base := q.BaseTable(alias)
		as := &aliasState{alias: alias, table: base, filter: q.FilterOn(alias)}
		aliasStates[alias] = as
		byTable[base] = append(byTable[base], as)
		filters[base] = append(filters[base], as.filter)
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

	reducers := 0
	for _, name := range matOrderOf(tables, order) {
		ts := tables[name]
		if e.opts.SemiJoinReduction || e.opts.SecondaryIndexes[name] != "" {
			reducers += e.runtimeBlockPrune(q, ts, aliasStates, tables)
		}
		if err := e.readAndFilter(ts, byTable[name]); err != nil {
			return nil, err
		}
	}

	// Semantic reduction fixpoint: surviving rows per alias.
	joinProbes := e.semanticReduce(q, aliasStates)

	surviving := make(map[string]int, len(aliasStates))
	for alias, as := range aliasStates {
		surviving[alias] = len(as.rows)
	}
	aggs, err := e.foldAggregatesReference(q, aliasStates)
	if err != nil {
		return nil, err
	}
	res := e.assemble(q, order, tables, surviving, joinProbes, reducers)
	res.Aggregates = aggs
	return res, nil
}

// readAndFilter meters the reads of the table's candidate blocks and
// computes each alias's filtered row set over the base table rows of each
// block read.
func (e *Engine) readAndFilter(ts *tableState, aliases []*aliasState) error {
	tbl := e.ds.Table(ts.table)
	if tbl == nil {
		return fmt.Errorf("engine: dataset missing table %q", ts.table)
	}
	for _, id := range ts.candidates {
		b, err := e.store.ReadBlock(ts.table, id)
		if err != nil {
			return err
		}
		ts.blocksRead++
		ts.rowsRead += b.NumRows()
		for _, as := range aliases {
			mask := make([]uint64, (len(b.Rows)+63)/64)
			predicate.FillRows(as.filter, tbl, b.Rows, mask)
			for k, r := range b.Rows {
				if mask[k>>6]>>(uint(k)&63)&1 == 1 {
					as.rows = append(as.rows, r)
				}
			}
		}
	}
	ts.read = true
	return nil
}
