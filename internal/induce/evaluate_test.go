package induce

import (
	"fmt"

	"mto/internal/predicate"
	"mto/internal/relation"
)

// Evaluate materializes the literal cut by running the semi-join chain over
// ds row by row (§3.2.1 step 1c). It is the scalar oracle the batched
// EvaluateAll must stay byte-identical to. On error the predicate is left
// unchanged (a previously evaluated literal stays valid), never
// half-materialized.
func (p *Predicate) Evaluate(ds *relation.Dataset) error {
	hops := p.Path.Hops
	stages := make([]*keySet, len(hops))

	src := ds.Table(p.Path.Source())
	if src == nil {
		return fmt.Errorf("induce: missing source table %q", p.Path.Source())
	}
	stage0 := newKeySet()
	ci, ok := src.Schema().ColumnIndex(hops[0].FromColumn)
	if !ok {
		return fmt.Errorf("induce: %s has no column %q", p.Path.Source(), hops[0].FromColumn)
	}
	if err := checkJoinColumnKind(src, ci); err != nil {
		return err
	}
	match := make([]uint64, (src.NumRows()+63)/64)
	predicate.FillMask(p.SourceCut, src, match)
	for r := 0; r < src.NumRows(); r++ {
		if match[r>>6]>>(uint(r)&63)&1 == 1 {
			stage0.add(src.Value(r, ci))
		}
	}
	stage0.optimize()
	stages[0] = stage0

	for i := 1; i < len(hops); i++ {
		tbl := ds.Table(hops[i].FromTable)
		if tbl == nil {
			return fmt.Errorf("induce: missing table %q", hops[i].FromTable)
		}
		inCol, ok := tbl.Schema().ColumnIndex(hops[i-1].ToColumn)
		if !ok {
			return fmt.Errorf("induce: %s has no column %q", hops[i].FromTable, hops[i-1].ToColumn)
		}
		outCol, ok := tbl.Schema().ColumnIndex(hops[i].FromColumn)
		if !ok {
			return fmt.Errorf("induce: %s has no column %q", hops[i].FromTable, hops[i].FromColumn)
		}
		if err := checkJoinColumnKind(tbl, inCol); err != nil {
			return err
		}
		if err := checkJoinColumnKind(tbl, outCol); err != nil {
			return err
		}
		prev, next := stages[i-1], newKeySet()
		for r := 0; r < tbl.NumRows(); r++ {
			if prev.contains(tbl.Value(r, inCol)) {
				next.add(tbl.Value(r, outCol))
			}
		}
		next.optimize()
		stages[i] = next
	}
	p.stages = stages
	return nil
}

// MatchesRow reports whether the target-table row satisfies the literal cut
// (record routing, §4.1.2), one boxed lookup: the oracle FillMask must
// agree with. t must be the target table.
func (p *Predicate) MatchesRow(t *relation.Table, row int) bool {
	ci, ok := t.Schema().ColumnIndex(p.TargetColumn())
	if !ok {
		return false
	}
	return p.literal().contains(t.Value(row, ci))
}
