package engine

import (
	"fmt"
	"math/bits"
	"strings"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file computes query aggregates (workload.Query.Aggregates) over the
// per-alias surviving row sets, after all filters and join semantics.
// Execute compiles one block.Fold per aliased table and folds each alias
// in exactly one of two ways, which agree byte for byte:
//
//   - when the fold's Supported() accepts every aggregate of the alias,
//     the backend folds them per candidate block (the colstore segment
//     store folds directly over encoded pages — no column decode, no
//     survivor materialization) into dense per-slot states. Integer
//     SUM/COUNT/MIN/MAX and string MIN/MAX are order-independent, and the
//     backend only takes sums whose zone maps prove no overflow, so the
//     per-block accumulation is exact regardless of block order;
//   - otherwise the row-order pass (grouped.go) folds all of them —
//     floats, overflow-risk sums, everything on the reference path — in
//     ascending global row order over the base table's decoded vectors.
//
// Floats are never folded by a backend: float addition is order-sensitive,
// and the one float accumulation order that defines the result is the
// row-order pass's. Both execution paths use the same fold code, so
// Results stay byte-identical across pushdown reach and replay
// parallelism (parallel replay folds per query inside Execute;
// RunWorkload only collects whole Results in input order).

// AggValue is one computed aggregate in a Result: the requested spec and
// its SQL-semantics value — Null for SUM/MIN/MAX/AVG over an empty (or
// all-null) survivor set, a count of 0 for COUNT. For grouped queries
// (Query.GroupBy set) Value is Null and Groups carries the per-group
// values instead, sorted by group key: the NULL group first, then
// ascending values, a float NaN group last — a deterministic order shared
// by every fold path.
type AggValue struct {
	Spec    workload.Aggregate
	Value   value.Value
	GroupBy workload.GroupBy // zero for flat aggregates
	Groups  []GroupValue     // per-group values, NULL group first then ascending keys, NaN last
}

// String renders "sum(lo.lo_revenue)=4099853" for flat aggregates and
// "sum(l.l_quantity) by l.l_returnflag={"A":37734107, "N":74476040}" for
// grouped ones. Group keys and values render via value.Value.String —
// NULL unadorned, strings quoted — so the serialization is unambiguous
// and deterministic (groups are already sorted by key).
func (av AggValue) String() string {
	if av.GroupBy.IsZero() {
		return fmt.Sprintf("%s=%s", av.Spec, av.Value)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s by %s={", av.Spec, av.GroupBy)
	for i, g := range av.Groups {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g.Key.String())
		sb.WriteByte(':')
		sb.WriteString(g.Value.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// aggColumnKind resolves spec's column in the alias's base table and
// validates the operator/kind fit. ci is -1 for COUNT(*). Both execution
// paths route through this, so unsupported shapes fail identically.
func aggColumnKind(tbl *relation.Table, spec workload.Aggregate) (ci int, kind value.Kind, err error) {
	if spec.Column == "" {
		// Validate() already requires Op == AggCount for column-less
		// aggregates.
		return -1, value.KindNull, nil
	}
	ci, ok := tbl.Schema().ColumnIndex(spec.Column)
	if !ok {
		return 0, 0, fmt.Errorf("engine: aggregate %s: table %q has no column %q",
			spec, tbl.Schema().Table(), spec.Column)
	}
	kind = tbl.Schema().Column(ci).Type
	switch spec.Op {
	case workload.AggSum, workload.AggAvg:
		if kind != value.KindInt && kind != value.KindFloat {
			return 0, 0, fmt.Errorf("engine: aggregate %s: %s over %s column", spec, spec.Op, kind)
		}
	}
	return ci, kind, nil
}

// finalizeAgg turns a fold state into the aggregate's SQL value. Backend
// per-block folds and the row-order pass's int/string states both land
// here, so they cannot diverge in the empty-set, all-null, or AVG-division
// rules.
func finalizeAgg(spec workload.Aggregate, kind value.Kind, st *block.AggState) value.Value {
	switch spec.Op {
	case workload.AggCount: // COUNT(col); callers read COUNT(*) off the survivor count
		return value.Int(st.Count)
	case workload.AggMin:
		if !st.Seen {
			return value.Null
		}
		if kind == value.KindString {
			return value.String(st.MinS)
		}
		return value.Int(st.MinI)
	case workload.AggMax:
		if !st.Seen {
			return value.Null
		}
		if kind == value.KindString {
			return value.String(st.MaxS)
		}
		return value.Int(st.MaxI)
	case workload.AggAvg:
		if st.Count == 0 {
			return value.Null
		}
		return value.Float(float64(st.Sum) / float64(st.Count))
	default: // AggSum
		if st.Count == 0 {
			return value.Null
		}
		return value.Int(st.Sum)
	}
}

// foldAggregates validates q's aggregates in declaration order — so
// unsupported shapes fail before any fold, identically on both execution
// paths — and computes them one aliased table at a time, in first-seen
// order, through fold (a grouped query pins every aggregate to the
// grouping alias, so it folds once).
func (e *Engine) foldAggregates(q *workload.Query,
	fold func(alias string, specs []workload.Aggregate) ([]AggValue, error)) ([]AggValue, error) {

	if len(q.Aggregates) == 0 {
		return nil, nil
	}
	var aliasOrder []string
	byAlias := map[string][]int{}
	for i, spec := range q.Aggregates {
		if _, _, err := aggColumnKind(e.ds.Table(q.BaseTable(spec.Alias)), spec); err != nil {
			return nil, err
		}
		if _, ok := byAlias[spec.Alias]; !ok {
			aliasOrder = append(aliasOrder, spec.Alias)
		}
		byAlias[spec.Alias] = append(byAlias[spec.Alias], i)
	}
	out := make([]AggValue, len(q.Aggregates))
	for _, alias := range aliasOrder {
		idxs := byAlias[alias]
		specs := make([]workload.Aggregate, len(idxs))
		for k, i := range idxs {
			specs[k] = q.Aggregates[i]
		}
		vals, err := fold(alias, specs)
		if err != nil {
			return nil, err
		}
		for k, i := range idxs {
			out[i] = vals[k]
		}
	}
	return out, nil
}

// foldAlias computes specs, all over alias a, grouped by gb (zero =
// ungrouped, the one-slot case): compile the fold against the backend;
// if it supports every aggregate, fold them per candidate block — exactly
// the blocks the scan read, which cover every set survivor bit — handing
// each block its own words of a's position set, into dense per-slot
// states and finalize those, else map the survivors back to base rows and
// fold all of them in the row-order pass over the base table.
func (e *Engine) foldAlias(gb workload.GroupBy, a *vecAlias, candidates []int,
	specs []workload.Aggregate) ([]AggValue, error) {

	var group block.GroupKey
	if !gb.IsZero() {
		group = block.GroupKey{Column: gb.Column, Dict: e.groupDictFor(a.table, gb.Column)}
	}
	fold := e.store.CompileFold(a.table, group, specs)
	if fold == nil {
		return nil, errNoLayout(a.table)
	}
	tbl := e.ds.Table(a.table)
	want := make([]bool, len(specs))
	for k, ok := range fold.Supported() {
		if !ok {
			e.counters.materializedFoldRows.Add(int64(a.count))
			rows := grabDense(tbl.NumRows())
			defer putDense(rows)
			baseRows(a.set, a.order, rows.dense())
			return e.foldMaterialized(a.table, tbl, rows.dense(), gb, specs)
		}
		want[k] = specs[k].Column != "" // COUNT(*) reads GroupedStates.Rows
	}
	gs := block.NewGroupedStates(group.Slots(), want)
	for _, id := range candidates {
		if err := fold.FoldBlock(id, a.order.Block(a.set, id), gs); err != nil {
			return nil, err
		}
	}
	g := &slotter{rows: gs.Rows, dict: group.Dict} // a group exists iff it has survivors
	return slotAggs(gb, specs, g.live(), g.key, func(k, slot int) value.Value {
		if specs[k].Column == "" {
			return value.Int(gs.Rows[slot])
		}
		_, kind, _ := aggColumnKind(tbl, specs[k]) // validated by foldAggregates
		return finalizeAgg(specs[k], kind, &gs.Aggs[k][slot])
	}), nil
}

// baseRows sets in rows (zeroed, over the base table) the base row of
// every position set in set, so the row-order pass folds in base-row
// order whatever the layout.
func baseRows(set bitmap.Dense, order *block.RowOrder, rows bitmap.Dense) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			rows.Set(int(order.Rows[w<<6|bits.TrailingZeros64(word)]))
		}
	}
}

// foldAggregatesReference computes q's aggregates for the scalar reference
// path: each alias's surviving row list becomes a bitmap so the shared
// row-order pass sees the exact accumulation order the kernel path uses.
func (e *Engine) foldAggregatesReference(q *workload.Query, aliasStates map[string]*aliasState) ([]AggValue, error) {
	return e.foldAggregates(q, func(alias string, specs []workload.Aggregate) ([]AggValue, error) {
		as := aliasStates[alias]
		tbl := e.ds.Table(as.table)
		set := bitmap.NewDense(tbl.NumRows())
		for _, r := range as.rows {
			set.Set(int(r))
		}
		return e.foldMaterialized(as.table, tbl, set, q.GroupBy, specs)
	})
}
