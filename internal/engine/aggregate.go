package engine

import (
	"fmt"
	"math/bits"
	"strings"

	"mto/internal/bitmap"
	"mto/internal/block"
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
//     floats, overflow-risk sums, everything on the reference path —
//     over the base table's decoded vectors, each group's rows in
//     ascending base-row order.
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

// foldAggregates computes q's aggregates one aliased table at a time, in
// first-aggregated order (bind grouped them), through fold, and returns
// them in declaration order.
func (e *Engine) foldAggregates(b *boundQuery, fold func(f *foldSpec) ([]AggValue, error)) ([]AggValue, error) {
	if len(b.q.Aggregates) == 0 {
		return nil, nil
	}
	out := make([]AggValue, len(b.q.Aggregates))
	for _, f := range b.folds {
		vals, err := fold(f)
		if err != nil {
			return nil, err
		}
		for k, i := range f.at {
			out[i] = vals[k]
		}
	}
	return out, nil
}

// foldAlias computes f's aggregates over alias a: compile the fold against
// the backend; if it supports every aggregate, fold them per candidate
// block — exactly the blocks the scan read, which cover every set survivor
// bit — handing each block its own words of a's position set, into dense
// per-slot states and finalize those, else fold all of them in the
// row-order pass over the base table (foldPositions).
func (e *Engine) foldAlias(f *foldSpec, a *vecAlias, candidates []int) ([]AggValue, error) {
	var group block.GroupKey
	if !f.group.IsZero() {
		group = block.GroupKey{Column: f.group.Column, Dict: e.groupDictFor(f.table, f.group.Column)}
	}
	fold := e.store.CompileFold(f.table, group, f.specs)
	if fold == nil {
		return nil, errNoLayout(f.table)
	}
	want := make([]bool, len(f.specs))
	for k, ok := range fold.Supported() {
		if !ok {
			e.counters.materializedFoldRows.Add(int64(a.count))
			return e.foldPositions(f, a.set, a.order, a.count)
		}
		want[k] = f.specs[k].Column != "" // COUNT(*) reads GroupedStates.Rows
	}
	gs := block.NewGroupedStates(group.Slots(), want)
	for _, id := range candidates {
		if err := fold.FoldBlock(id, a.order.Block(a.set, id), gs); err != nil {
			return nil, err
		}
	}
	g := &slotter{rows: gs.Rows, dict: group.Dict} // a group exists iff it has survivors
	return slotAggs(f.group, f.specs, g.live(), g.key, func(k, slot int) value.Value {
		if f.specs[k].Column == "" {
			return value.Int(gs.Rows[slot])
		}
		return finalizeAgg(f.specs[k], f.cols[k].kind, &gs.Aggs[k][slot])
	}), nil
}

// baseRows sets in rows (zeroed, over the base table) the base row of
// every position set in set, so a sparse row-order pass folds in base-row
// order whatever the layout.
func baseRows(set bitmap.Dense, order *block.RowOrder, rows bitmap.Dense) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			rows.Set(int(order.Rows[w<<6|bits.TrailingZeros64(word)]))
		}
	}
}
