// Package workload defines the structured query model MTO optimizes for: a
// query is a set of table references (aliases), equijoin edges between them
// (§4.1.1: inner, one-sided outer, semi, anti-semi, self, and correlated-
// subquery joins over a single column), and a conjunction of simple filter
// predicates per table reference.
//
// The model deliberately omits projection and aggregation details — only the
// filter/join shape matters for block skipping — but retains everything the
// paper's algorithms consume: predicate extraction per table (§3.2.1 step
// 1a), join-direction legality for predicate induction (§4.1.1), and the
// join-graph-sharing test used when routing queries through join-induced
// cuts (§4.1.2).
package workload

import (
	"fmt"
	"sort"
	"strings"

	"mto/internal/predicate"
)

// JoinType enumerates the supported equijoin variants (§4.1.1).
type JoinType uint8

// Join types. Induction directionality follows the paper's rules.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	LeftAntiSemiJoin
	RightAntiSemiJoin
)

// String returns the SQL-ish name of the join type.
func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "INNER"
	case LeftOuterJoin:
		return "LEFT OUTER"
	case RightOuterJoin:
		return "RIGHT OUTER"
	case FullOuterJoin:
		return "FULL OUTER"
	case SemiJoin:
		return "SEMI"
	case LeftAntiSemiJoin:
		return "LEFT ANTI SEMI"
	case RightAntiSemiJoin:
		return "RIGHT ANTI SEMI"
	default:
		return fmt.Sprintf("join(%d)", uint8(j))
	}
}

// CanInduceLeftToRight reports whether a predicate on the left side may be
// induced onto the right side for this join type (§4.1.1 rules).
func (j JoinType) CanInduceLeftToRight() bool {
	switch j {
	case InnerJoin, LeftOuterJoin, SemiJoin, LeftAntiSemiJoin:
		return true
	default:
		return false
	}
}

// CanInduceRightToLeft reports whether a predicate on the right side may be
// induced onto the left side for this join type.
func (j JoinType) CanInduceRightToLeft() bool {
	switch j {
	case InnerJoin, RightOuterJoin, SemiJoin, RightAntiSemiJoin:
		return true
	default:
		return false
	}
}

// TableRef is one occurrence of a base table in a query. Self joins use the
// same Table with distinct aliases, which MTO treats as two logical copies
// of the table (§4.1.1).
type TableRef struct {
	Table string // base table name
	Alias string // unique within the query; empty defaults to Table
}

// Name is the name the query refers to r by: its alias, or its table when
// it has none.
func (r TableRef) Name() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Table
}

// Join is a single-column equijoin edge between two table references.
type Join struct {
	Left, LeftColumn   string // alias and column of the left side
	Right, RightColumn string // alias and column of the right side
	Type               JoinType
	// CorrelatedInner, when non-empty, names the side (Left or Right
	// alias) that is a correlated subquery. Predicates may be induced
	// from the outer query into the subquery but not back out (§4.1.1).
	CorrelatedInner string
}

// String renders the join edge.
func (j Join) String() string {
	s := fmt.Sprintf("%s.%s = %s.%s [%s]", j.Left, j.LeftColumn, j.Right, j.RightColumn, j.Type)
	if j.CorrelatedInner != "" {
		s += fmt.Sprintf(" (correlated inner: %s)", j.CorrelatedInner)
	}
	return s
}

// AggOp enumerates the aggregate functions a query can request over the
// rows surviving for one alias.
type AggOp uint8

// The supported aggregate operators.
const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String returns the lower-case SQL name of the operator.
func (o AggOp) String() string {
	switch o {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(o))
	}
}

// Aggregate is one requested aggregate: Op folded over Column of the rows
// that survive for Alias after all filters and join semantics. Column may
// be empty only for AggCount (COUNT(*), which counts surviving rows
// regardless of nulls); COUNT over a named column counts its non-null
// survivors.
type Aggregate struct {
	Op     AggOp
	Alias  string
	Column string
}

// String renders the aggregate, e.g. "sum(lo.lo_revenue)".
func (a Aggregate) String() string {
	if a.Column == "" {
		return fmt.Sprintf("%s(%s.*)", a.Op, a.Alias)
	}
	return fmt.Sprintf("%s(%s.%s)", a.Op, a.Alias, a.Column)
}

// GroupBy optionally groups a query's aggregates by one column of one
// alias (SQL single-column GROUP BY). The zero value means no grouping.
// Because the engine computes per-alias surviving row sets rather than
// row-pairing join outputs, a grouped query must fold every aggregate
// over the GroupBy alias — the TPC-H Q1 rollup shape, where the grouping
// column lives on the aggregated fact table. NULL group-column values
// form one group, as in SQL.
type GroupBy struct {
	Alias  string
	Column string
}

// IsZero reports whether no grouping was requested.
func (g GroupBy) IsZero() bool { return g.Alias == "" && g.Column == "" }

// String renders "lineitem.l_returnflag".
func (g GroupBy) String() string { return g.Alias + "." + g.Column }

// Query is the structured form of one workload query.
type Query struct {
	// ID identifies the query (e.g. "tpch-q5#3") in reports.
	ID string
	// Tables lists the table references.
	Tables []TableRef
	// Joins lists the equijoin edges.
	Joins []Join
	// Filters maps a table alias to the conjunction of simple predicates
	// the query applies to it. Absent aliases are unfiltered.
	Filters map[string]predicate.Predicate
	// Aggregates lists the aggregates the query computes over its
	// surviving rows, in declaration order. Optional: most of the layout
	// machinery only consumes the filter/join shape, but the engine
	// evaluates these (compressed-domain when the backend supports it).
	Aggregates []Aggregate
	// GroupBy optionally groups the aggregates by one column of the
	// aggregated alias. Zero value = no grouping. When set, every entry
	// of Aggregates must name the same alias (Validate enforces this).
	GroupBy GroupBy
	// Weight is the query's relative frequency in the workload (≥ 0);
	// zero means 1.
	Weight float64
}

// NewQuery returns a query over the given tables with no joins or filters.
func NewQuery(id string, tables ...TableRef) *Query {
	return &Query{ID: id, Tables: tables, Filters: map[string]predicate.Predicate{}}
}

// AddJoin appends an inner equijoin edge and returns the query.
func (q *Query) AddJoin(leftAlias, leftCol, rightAlias, rightCol string) *Query {
	q.Joins = append(q.Joins, Join{
		Left: leftAlias, LeftColumn: leftCol,
		Right: rightAlias, RightColumn: rightCol,
		Type: InnerJoin,
	})
	return q
}

// AddTypedJoin appends a join edge with an explicit type.
func (q *Query) AddTypedJoin(j Join) *Query {
	q.Joins = append(q.Joins, j)
	return q
}

// Filter conjoins p onto the alias's filter and returns the query.
func (q *Query) Filter(alias string, p predicate.Predicate) *Query {
	if q.Filters == nil {
		q.Filters = map[string]predicate.Predicate{}
	}
	if existing, ok := q.Filters[alias]; ok {
		q.Filters[alias] = predicate.NewAnd(existing, p)
	} else {
		q.Filters[alias] = p
	}
	return q
}

// Aggregate appends an aggregate over alias.col and returns the query.
// Pass col == "" with AggCount for COUNT(*).
func (q *Query) Aggregate(op AggOp, alias, col string) *Query {
	q.Aggregates = append(q.Aggregates, Aggregate{Op: op, Alias: alias, Column: col})
	return q
}

// GroupByCol sets the query's GROUP BY column and returns the query.
// Aggregates of a grouped query must all fold over the same alias.
func (q *Query) GroupByCol(alias, col string) *Query {
	q.GroupBy = GroupBy{Alias: alias, Column: col}
	return q
}

// EffectiveWeight returns Weight, defaulting to 1.
func (q *Query) EffectiveWeight() float64 {
	if q.Weight > 0 {
		return q.Weight
	}
	return 1
}

// BaseTable returns the base table for an alias ("" if unknown).
func (q *Query) BaseTable(alias string) string {
	for _, r := range q.Tables {
		if r.Name() == alias {
			return r.Table
		}
	}
	return ""
}

// Aliases returns all table aliases in declaration order.
func (q *Query) Aliases() []string {
	out := make([]string, len(q.Tables))
	for i, r := range q.Tables {
		out[i] = r.Name()
	}
	return out
}

// AliasesOf returns the aliases referring to the given base table.
func (q *Query) AliasesOf(table string) []string {
	var out []string
	for _, r := range q.Tables {
		if r.Table == table {
			out = append(out, r.Name())
		}
	}
	return out
}

// FilterOn returns the filter for an alias (TRUE when absent).
func (q *Query) FilterOn(alias string) predicate.Predicate {
	if p, ok := q.Filters[alias]; ok {
		return p
	}
	return predicate.True()
}

// TouchesTable reports whether the query references the base table.
func (q *Query) TouchesTable(table string) bool {
	return len(q.AliasesOf(table)) > 0
}

// Validate checks referential consistency: unique aliases, join edges over
// declared aliases, filters over declared aliases, weights non-negative.
func (q *Query) Validate() error {
	seen := map[string]bool{}
	for _, r := range q.Tables {
		if r.Table == "" {
			return fmt.Errorf("workload: %s: empty table name", q.ID)
		}
		a := r.Name()
		if seen[a] {
			return fmt.Errorf("workload: %s: duplicate alias %q", q.ID, a)
		}
		seen[a] = true
	}
	for _, j := range q.Joins {
		if !seen[j.Left] || !seen[j.Right] {
			return fmt.Errorf("workload: %s: join %s references unknown alias", q.ID, j)
		}
		if j.Left == j.Right {
			return fmt.Errorf("workload: %s: join %s joins an alias to itself", q.ID, j)
		}
		if j.LeftColumn == "" || j.RightColumn == "" {
			return fmt.Errorf("workload: %s: join %s missing column", q.ID, j)
		}
		if ci := j.CorrelatedInner; ci != "" && ci != j.Left && ci != j.Right {
			return fmt.Errorf("workload: %s: correlated inner %q not a join side", q.ID, ci)
		}
	}
	for a := range q.Filters {
		if !seen[a] {
			return fmt.Errorf("workload: %s: filter on unknown alias %q", q.ID, a)
		}
	}
	for _, agg := range q.Aggregates {
		if !seen[agg.Alias] {
			return fmt.Errorf("workload: %s: aggregate %s on unknown alias %q", q.ID, agg, agg.Alias)
		}
		if agg.Column == "" && agg.Op != AggCount {
			return fmt.Errorf("workload: %s: aggregate %s requires a column", q.ID, agg)
		}
		if agg.Op > AggAvg {
			return fmt.Errorf("workload: %s: aggregate %s has unknown operator", q.ID, agg)
		}
	}
	if g := q.GroupBy; !g.IsZero() {
		if g.Alias == "" || g.Column == "" {
			return fmt.Errorf("workload: %s: group by %q needs both alias and column", q.ID, g)
		}
		if !seen[g.Alias] {
			return fmt.Errorf("workload: %s: group by %s on unknown alias %q", q.ID, g, g.Alias)
		}
		for _, agg := range q.Aggregates {
			if agg.Alias != g.Alias {
				return fmt.Errorf("workload: %s: aggregate %s folds over alias %q but the query groups by %s — grouped queries must aggregate the grouping alias",
					q.ID, agg, agg.Alias, g)
			}
		}
	}
	if q.Weight < 0 {
		return fmt.Errorf("workload: %s: negative weight", q.ID)
	}
	return nil
}

// String renders a compact description of the query.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Q[%s](", q.ID)
	for i, r := range q.Tables {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.Name())
	}
	sb.WriteString(")")
	for _, j := range q.Joins {
		fmt.Fprintf(&sb, " ⋈ %s", j)
	}
	aliases := make([]string, 0, len(q.Filters))
	for a := range q.Filters {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		fmt.Fprintf(&sb, " σ[%s: %s]", a, q.Filters[a])
	}
	for _, agg := range q.Aggregates {
		fmt.Fprintf(&sb, " γ[%s]", agg)
	}
	if !q.GroupBy.IsZero() {
		fmt.Fprintf(&sb, " by[%s]", q.GroupBy)
	}
	return sb.String()
}

// Workload is an ordered multiset of queries.
type Workload struct {
	Queries []*Query
}

// NewWorkload returns a workload over qs.
func NewWorkload(qs ...*Query) *Workload { return &Workload{Queries: qs} }

// Add appends a query.
func (w *Workload) Add(q *Query) { w.Queries = append(w.Queries, q) }

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// TotalWeight returns the sum of effective weights.
func (w *Workload) TotalWeight() float64 {
	total := 0.0
	for _, q := range w.Queries {
		total += q.EffectiveWeight()
	}
	return total
}

// Validate validates every query.
func (w *Workload) Validate() error {
	ids := map[string]bool{}
	for _, q := range w.Queries {
		if err := q.Validate(); err != nil {
			return err
		}
		if q.ID != "" && ids[q.ID] {
			return fmt.Errorf("workload: duplicate query id %q", q.ID)
		}
		ids[q.ID] = true
	}
	return nil
}

// TablesTouched returns the set of base tables referenced by any query,
// sorted.
func (w *Workload) TablesTouched() []string {
	set := map[string]bool{}
	for _, q := range w.Queries {
		for _, r := range q.Tables {
			set[r.Table] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// SplitConjuncts flattens a predicate into its top-level conjuncts. Each
// conjunct is one candidate cut for qd-tree construction (§2.1.3: "the set
// of filter predicates that appear in the query workload").
func SplitConjuncts(p predicate.Predicate) []predicate.Predicate {
	if a, ok := p.(*predicate.And); ok {
		var out []predicate.Predicate
		for _, c := range a.Children {
			out = append(out, SplitConjuncts(c)...)
		}
		return out
	}
	if c, ok := p.(predicate.Const); ok && bool(c) {
		return nil
	}
	return []predicate.Predicate{p}
}

// SimplePredicates extracts, for each base table, the distinct simple
// predicate conjuncts the workload applies to it (§3.2.1 step 1a). The
// result maps base table → deduplicated candidate predicates in first-seen
// order.
func SimplePredicates(w *Workload) map[string][]predicate.Predicate {
	out := map[string][]predicate.Predicate{}
	seen := map[string]map[string]bool{}
	for _, q := range w.Queries {
		for alias, f := range q.Filters {
			table := q.BaseTable(alias)
			if table == "" {
				continue
			}
			for _, conj := range SplitConjuncts(f) {
				// Canonical, not String: call sites build semantically equal
				// conjuncts in different child/literal orders, and those must
				// collapse into one candidate cut.
				key := predicate.Canonical(conj)
				if seen[table] == nil {
					seen[table] = map[string]bool{}
				}
				if seen[table][key] {
					continue
				}
				seen[table][key] = true
				out[table] = append(out[table], conj)
			}
		}
	}
	return out
}
