package engine

import (
	"fmt"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// boundQuery is a query with every name resolved once, the plan both
// executors start from (bind): each alias's table and filter, compiled
// once into the zone that qd-tree routing, induced-cut routing and
// zone-map pruning all read; each join edge's column ordinals; each
// aggregate's column. No stage after bind looks a column up by name in a
// schema. The tables' staging state lives here too, so the prune stage
// (prune) and both executors fill one place.
type boundQuery struct {
	q       *workload.Query
	tables  []*tableState              // base tables in first-reference order
	aliases []*boundAlias              // in q.Aliases() order
	zones   map[string]*predicate.Zone // alias → its filter's zone, the router's input
	edges   []boundEdge                // parallel to q.Joins
	folds   []*foldSpec                // aggregates by alias, aliases in first-aggregated order
}

// boundAlias is one table reference of the query.
type boundAlias struct {
	name string
	idx  int // position in boundQuery.aliases
	ts   *tableState
	zone *predicate.Zone // its filter's
}

// edgeSide is one end of a join edge: the alias, and the join column by
// name (the key of the engine's per-column caches) and by ordinal in the
// alias's table (-1 when the table lacks it).
type edgeSide struct {
	alias *boundAlias
	col   string
	ord   int
}

// boundEdge is one join edge resolved. ok reports that both columns exist:
// an edge over a missing column has no keys to reduce or prune with, and
// taking a nil key set for "no keys survive" would wrongly drop every row.
// rByL (lByR) reports whether the right (left) side's blocks may be pruned
// by the left (right) side's keys without changing the result. The
// directions coincide with the predicate-induction rules of §4.1.1: a side
// is prunable exactly when its unmatched rows are irrelevant to the
// result.
type boundEdge struct {
	left, right edgeSide
	ok          bool
	rByL, lByR  bool
}

// bind validates q and resolves its names against the engine's dataset.
func (e *Engine) bind(q *workload.Query) (*boundQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return e.resolve(q)
}

// resolve is bind without the validation, for the reduction tests' join
// graphs that Validate refuses (self edges).
func (e *Engine) resolve(q *workload.Query) (*boundQuery, error) {
	b := &boundQuery{q: q, aliases: make([]*boundAlias, len(q.Tables)),
		zones: make(map[string]*predicate.Zone, len(q.Tables)), edges: make([]boundEdge, len(q.Joins))}
	byName := make(map[string]*boundAlias, len(q.Tables))
	for i, r := range q.Tables {
		var ts *tableState
		for _, t := range b.tables {
			if t.table == r.Table {
				ts = t
			}
		}
		if ts == nil {
			tbl := e.ds.Table(r.Table)
			if tbl == nil {
				return nil, fmt.Errorf("engine: query %s touches unknown table %q", q.ID, r.Table)
			}
			ts = &tableState{table: r.Table, tbl: tbl}
			b.tables = append(b.tables, ts)
		}
		a := &boundAlias{name: r.Name(), idx: i, ts: ts}
		filter := q.FilterOn(a.name)
		a.zone = predicate.NewZone(filter, ts.tbl.Schema())
		ts.aliases, ts.filters = append(ts.aliases, a), append(ts.filters, filter)
		b.aliases[i], byName[a.name], b.zones[a.name] = a, a, a.zone
	}
	for i, j := range q.Joins {
		l, r := byName[j.Left], byName[j.Right]
		ed := &b.edges[i]
		ed.left = edgeSide{l, j.LeftColumn, l.ts.tbl.Schema().Ordinal(j.LeftColumn)}
		ed.right = edgeSide{r, j.RightColumn, r.ts.tbl.Schema().Ordinal(j.RightColumn)}
		ed.ok = ed.left.ord >= 0 && ed.right.ord >= 0
		ed.rByL, ed.lByR = j.Type.CanInduceLeftToRight(), j.Type.CanInduceRightToLeft()
	}
	if err := e.bindAggregates(b, byName); err != nil {
		return nil, err
	}
	return b, nil
}

// foldSpec is one alias's aggregates, in declaration order, resolved
// against its table, with the query's grouping.
type foldSpec struct {
	alias    int // the alias's position in boundQuery.aliases
	table    string
	tbl      *relation.Table
	at       []int // each spec's position in q.Aggregates
	specs    []workload.Aggregate
	cols     []aggColumn
	group    workload.GroupBy // zero when ungrouped
	groupOrd int              // the group column's ordinal
}

// aggColumn is an aggregate's column: its ordinal (-1 for COUNT(*)) and
// kind.
type aggColumn struct {
	ord  int
	kind value.Kind
}

// bindAggregates resolves q's aggregates in declaration order, so an
// unsupported shape fails before anything is read, and groups them by
// alias in first-seen order (a grouped query pins every aggregate to the
// grouping alias, so it folds once).
func (e *Engine) bindAggregates(b *boundQuery, byName map[string]*boundAlias) error {
	q := b.q
	byAlias := make([]*foldSpec, len(b.aliases))
	for i, spec := range q.Aggregates {
		a := byName[spec.Alias]
		col, err := aggColumnKind(a.ts.tbl, spec)
		if err != nil {
			return err
		}
		f := byAlias[a.idx]
		if f == nil {
			f = &foldSpec{alias: a.idx, table: a.ts.table, tbl: a.ts.tbl, group: q.GroupBy}
			b.folds, byAlias[a.idx] = append(b.folds, f), f
		}
		f.at, f.specs, f.cols = append(f.at, i), append(f.specs, spec), append(f.cols, col)
	}
	if g := q.GroupBy; !g.IsZero() && len(b.folds) > 0 {
		f := b.folds[0]
		ord, ok := f.tbl.Schema().ColumnIndex(g.Column)
		if !ok {
			return fmt.Errorf("engine: group by %s: table %q has no column %q", g, f.table, g.Column)
		}
		f.groupOrd = ord
	}
	return nil
}

// aggColumnKind resolves spec's column in the alias's base table and
// validates the operator/kind fit.
func aggColumnKind(tbl *relation.Table, spec workload.Aggregate) (aggColumn, error) {
	if spec.Column == "" {
		// Validate() already requires Op == AggCount for column-less
		// aggregates.
		return aggColumn{ord: -1, kind: value.KindNull}, nil
	}
	ci, ok := tbl.Schema().ColumnIndex(spec.Column)
	if !ok {
		return aggColumn{}, fmt.Errorf("engine: aggregate %s: table %q has no column %q",
			spec, tbl.Schema().Table(), spec.Column)
	}
	kind := tbl.Schema().Column(ci).Type
	switch spec.Op {
	case workload.AggSum, workload.AggAvg:
		if kind != value.KindInt && kind != value.KindFloat {
			return aggColumn{}, fmt.Errorf("engine: aggregate %s: %s over %s column", spec, spec.Op, kind)
		}
	}
	return aggColumn{ord: ci, kind: kind}, nil
}
