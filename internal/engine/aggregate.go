package engine

import (
	"fmt"
	"math"
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
// Execute compiles one block.Fold per aliased table and lets Supported()
// split the aggregates in two, which must agree byte for byte:
//
//   - supported aggregates fold per candidate block inside the backend
//     (the colstore segment store folds directly over encoded pages — no
//     column decode, no survivor materialization) into dense per-slot
//     states. Integer SUM/COUNT/MIN/MAX are order-independent, so the
//     per-block accumulation is exact regardless of block order;
//   - the materialized fold computes the rest — floats, overflow-risk
//     sums, everything on the reference path — by iterating the survivor bitmap in ascending global row order over the
//     base table's decoded vectors.
//
// Floats are never folded by a backend: float addition is order-sensitive,
// and the one float accumulation order that defines the result is the
// materialized fold's ascending row order. Both execution paths use the
// same fold code, so Results stay byte-identical across pushdown reach and
// replay parallelism (parallel replay folds per query inside Execute;
// RunWorkload only collects whole Results in input order).

// AggValue is one computed aggregate in a Result: the requested spec and
// its SQL-semantics value — Null for SUM/MIN/MAX/AVG over an empty (or
// all-null) survivor set, a count of 0 for COUNT. For grouped queries
// (Query.GroupBy set) Value is Null and Groups carries the per-group
// values instead, sorted by group key: the NULL group first, then
// ascending values — a deterministic order shared by every fold path.
type AggValue struct {
	Spec    workload.Aggregate
	Value   value.Value
	GroupBy workload.GroupBy // zero for flat aggregates
	Groups  []GroupValue     // per-group values, NULL group first then ascending keys
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

// foldAggregate computes spec over the rows of tbl set in the survivor
// bitmap — the materialized fold. Iteration is ascending global row order,
// which is the defining accumulation order for float results. Integer sums
// use checked addition and error out deterministically on overflow.
func foldAggregate(tbl *relation.Table, set bitmap.Dense, spec workload.Aggregate) (value.Value, error) {
	ci, kind, err := aggColumnKind(tbl, spec)
	if err != nil {
		return value.Null, err
	}
	if ci < 0 { // COUNT(*): surviving rows, nulls included
		return value.Int(int64(set.Count())), nil
	}
	nulls := tbl.Nulls(ci)
	var st block.AggState
	switch kind {
	case value.KindInt:
		ints := tbl.Ints(ci)
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				v := ints[r]
				if spec.Op == workload.AggSum || spec.Op == workload.AggAvg {
					if (v > 0 && st.Sum > math.MaxInt64-v) || (v < 0 && st.Sum < math.MinInt64-v) {
						return value.Null, fmt.Errorf("engine: aggregate %s: int64 sum overflow", spec)
					}
				}
				st.FoldInt(v)
			}
		}
		return finalizeAgg(spec, kind, &st), nil
	case value.KindFloat:
		floats := tbl.Floats(ci)
		var fsum, fmin, fmax float64
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				v := floats[r]
				fsum += v
				if !st.Seen || v < fmin {
					fmin = v
				}
				if !st.Seen || v > fmax {
					fmax = v
				}
				st.Seen = true
				st.Count++
			}
		}
		return finalizeFloatAgg(spec, &st, fsum, fmin, fmax), nil
	default: // strings
		strs := tbl.Strings(ci)
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				st.FoldStr(strs[r])
			}
		}
		return finalizeAgg(spec, kind, &st), nil
	}
}

// finalizeFloatAgg turns a float fold's state and scratch into the
// aggregate's SQL value. The flat and grouped materialized folds both
// land here, so float empty-set and AVG-division rules cannot diverge.
func finalizeFloatAgg(spec workload.Aggregate, st *block.AggState, fsum, fmin, fmax float64) value.Value {
	switch spec.Op {
	case workload.AggCount:
		return value.Int(st.Count)
	case workload.AggMin:
		if !st.Seen {
			return value.Null
		}
		return value.Float(fmin)
	case workload.AggMax:
		if !st.Seen {
			return value.Null
		}
		return value.Float(fmax)
	case workload.AggAvg:
		if st.Count == 0 {
			return value.Null
		}
		return value.Float(fsum / float64(st.Count))
	default: // AggSum
		if st.Count == 0 {
			return value.Null
		}
		return value.Float(fsum)
	}
}

// finalizeAgg turns a fold state into the aggregate's SQL value. Backend
// per-block folds and the materialized int/string folds both land here, so
// they cannot diverge in the empty-set, all-null, or AVG-division rules.
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
// ungrouped, the one-slot case): compile the fold against the backend,
// fold the aggregates it supports per candidate block — exactly the blocks
// the scan read, which cover every set survivor bit — into dense per-slot
// states, finalize them, and compute the rest over the base table.
func (e *Engine) foldAlias(gb workload.GroupBy, a *vecAlias, candidates []int,
	specs []workload.Aggregate) ([]AggValue, error) {

	var group block.GroupKey
	if !gb.IsZero() {
		group = block.GroupKey{Column: gb.Column, Dict: e.dictFor(a.table, gb.Column)}
	}
	fold := e.store.CompileFold(a.table, group, specs)
	if fold == nil {
		return nil, errNoLayout(a.table)
	}
	supported := fold.Supported()
	want := make([]bool, len(specs))
	var resid []workload.Aggregate
	for k, spec := range specs {
		if !supported[k] {
			resid = append(resid, spec)
		} else if spec.Column != "" { // COUNT(*) reads GroupedStates.Rows
			want[k] = true
		}
	}
	tbl := e.ds.Table(a.table)
	if len(resid) == len(specs) {
		return e.foldMaterialized(a.table, tbl, a.set, gb, resid)
	}
	// Fold the candidate blocks first: the scan has just read them, so on a
	// small buffer pool they are still resident; the residual fold reads no
	// blocks and can wait.
	gs := block.NewGroupedStates(group.Slots(), want)
	for _, id := range candidates {
		if err := fold.FoldBlock(id, a.set, gs); err != nil {
			return nil, err
		}
	}
	var rout []AggValue
	if len(resid) > 0 {
		var err error
		if rout, err = e.foldMaterialized(a.table, tbl, a.set, gb, resid); err != nil {
			return nil, err
		}
	}
	// The ungrouped result is slot 0 whether or not it has survivors. A
	// group exists iff it has survivors; ascending slot order is the
	// deterministic output order (NULL first, then ascending values).
	var live []int
	if !gb.IsZero() {
		for slot, rows := range gs.Rows {
			if rows > 0 {
				live = append(live, slot)
			}
		}
	}
	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		if !supported[k] { // rout holds the residual values in specs order
			out[k], rout = rout[0], rout[1:]
			continue
		}
		_, kind, err := aggColumnKind(tbl, spec)
		if err != nil {
			return nil, err
		}
		slotValue := func(slot int) value.Value {
			if spec.Column == "" {
				return value.Int(gs.Rows[slot])
			}
			return finalizeAgg(spec, kind, &gs.Aggs[k][slot])
		}
		if gb.IsZero() {
			out[k] = AggValue{Spec: spec, Value: slotValue(0)}
			continue
		}
		av := AggValue{Spec: spec, Value: value.Null, GroupBy: gb, Groups: make([]GroupValue, 0, len(live))}
		for _, slot := range live {
			key := value.Null
			if slot > 0 {
				key = group.Dict.Value(int32(slot - 1))
			}
			av.Groups = append(av.Groups, GroupValue{Key: key, Value: slotValue(slot)})
		}
		out[k] = av
	}
	return out, nil
}

// foldMaterialized computes specs over the survivor set from the base
// table's decoded vectors: the sparse hash fold when grouped, one bitmap
// fold per aggregate otherwise.
func (e *Engine) foldMaterialized(table string, tbl *relation.Table, set bitmap.Dense,
	gb workload.GroupBy, specs []workload.Aggregate) ([]AggValue, error) {

	if !gb.IsZero() {
		return e.foldGroupedMaterialized(table, tbl, set, gb, specs)
	}
	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		v, err := foldAggregate(tbl, set, spec)
		if err != nil {
			return nil, err
		}
		out[k] = AggValue{Spec: spec, Value: v}
	}
	return out, nil
}

// foldAggregatesReference computes q's aggregates for the scalar reference
// path: each alias's surviving row list becomes a bitmap so the shared
// materialized fold sees the exact accumulation order the kernel path uses.
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
