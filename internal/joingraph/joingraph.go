// Package joingraph analyzes a query's join structure for predicate
// induction (§4.1 of the paper). It enumerates legal induction paths — the
// chains of equijoins a simple predicate can be passed through — and matches
// a query's join graph against a stored cut's induction path at routing time
// (§4.1.2).
//
// Legality follows §4.1.1: direction rules per join type, no induction
// through full outer joins, outer-to-inner only for correlated subqueries,
// and (as a policy, not a correctness requirement) every hop must originate
// from a column with unique values so inserts and deletes stay cheap (§5.2).
package joingraph

import (
	"fmt"
	"slices"
	"strings"

	"mto/internal/workload"
)

// UniqueFn reports whether a base table's column is known to hold unique
// values (e.g. a primary key). It gates induction hops.
type UniqueFn func(table, column string) bool

// AllowAll is a UniqueFn that disables the unique-source restriction; it is
// used by the ablation study of §4.1.1's policy.
func AllowAll(string, string) bool { return true }

// Hop is one step of an induction path, at base-table granularity: the
// predicate moves from FromTable to ToTable through the equijoin
// FromTable.FromColumn = ToTable.ToColumn.
type Hop struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
	Type       workload.JoinType
}

// JoinKey canonically identifies the underlying join regardless of hop
// direction; cardinality adjustment uses it to avoid double-counting one
// join that appears on multiple intersecting cuts (§4.2).
func (h Hop) JoinKey() string {
	a := h.FromTable + "." + h.FromColumn
	b := h.ToTable + "." + h.ToColumn
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
}

// String renders the hop.
func (h Hop) String() string {
	return fmt.Sprintf("%s.%s→%s.%s", h.FromTable, h.FromColumn, h.ToTable, h.ToColumn)
}

// Path is an induction path from a source table (where the simple predicate
// lives) to a target table (which receives the join-induced predicate).
type Path struct {
	Hops []Hop
}

// Source returns the base table the path originates from.
func (p Path) Source() string { return p.Hops[0].FromTable }

// Target returns the base table the path ends at.
func (p Path) Target() string { return p.Hops[len(p.Hops)-1].ToTable }

// Depth returns the induction depth (number of joins traversed).
func (p Path) Depth() int { return len(p.Hops) }

// TargetColumn returns the join column on the target table — the column the
// literal IN cut constrains.
func (p Path) TargetColumn() string { return p.Hops[len(p.Hops)-1].ToColumn }

// Extend returns a new path with h appended.
func (p Path) Extend(h Hop) Path {
	hops := make([]Hop, len(p.Hops)+1)
	copy(hops, p.Hops)
	hops[len(p.Hops)] = h
	return Path{Hops: hops}
}

// JoinKeys returns the canonical identity of every join on the path.
func (p Path) JoinKeys() []string {
	out := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		out[i] = h.JoinKey()
	}
	return out
}

// String renders "C →CKEY B →BKEY A"-style path text.
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteString(p.Hops[0].FromTable)
	for _, h := range p.Hops {
		fmt.Fprintf(&sb, " →%s %s", h.FromColumn, h.ToTable)
	}
	return sb.String()
}

// aliasHop is a hop at alias granularity during enumeration.
type aliasHop struct {
	hop     Hop
	toAlias string
}

// legalHopsFrom returns the hops leaving fromAlias that induction may take.
func legalHopsFrom(q *workload.Query, fromAlias string, unique UniqueFn) []aliasHop {
	var out []aliasHop
	for _, j := range q.Joins {
		var h Hop
		var toAlias string
		switch fromAlias {
		case j.Left:
			if !j.Type.CanInduceLeftToRight() {
				continue
			}
			// Correlated subqueries only receive predicates, never
			// export them (§4.1.1).
			if j.CorrelatedInner == j.Left {
				continue
			}
			h = Hop{
				FromTable: q.BaseTable(j.Left), FromColumn: j.LeftColumn,
				ToTable: q.BaseTable(j.Right), ToColumn: j.RightColumn,
				Type: j.Type,
			}
			toAlias = j.Right
		case j.Right:
			if !j.Type.CanInduceRightToLeft() {
				continue
			}
			if j.CorrelatedInner == j.Right {
				continue
			}
			h = Hop{
				FromTable: q.BaseTable(j.Right), FromColumn: j.RightColumn,
				ToTable: q.BaseTable(j.Left), ToColumn: j.LeftColumn,
				Type: j.Type,
			}
			toAlias = j.Left
		default:
			continue
		}
		if !unique(h.FromTable, h.FromColumn) {
			continue
		}
		out = append(out, aliasHop{hop: h, toAlias: toAlias})
	}
	return out
}

// PathsFrom enumerates every legal simple induction path in q that starts at
// sourceAlias, up to maxDepth hops. Paths never revisit an alias, so self
// joins behave as two distinct logical tables.
func PathsFrom(q *workload.Query, sourceAlias string, unique UniqueFn, maxDepth int) []Path {
	if maxDepth <= 0 {
		return nil
	}
	var out []Path
	visited := map[string]bool{sourceAlias: true}
	var walk func(alias string, prefix Path)
	walk = func(alias string, prefix Path) {
		if len(prefix.Hops) >= maxDepth {
			return
		}
		for _, ah := range legalHopsFrom(q, alias, unique) {
			if visited[ah.toAlias] {
				continue
			}
			p := prefix.Extend(ah.hop)
			out = append(out, p)
			visited[ah.toAlias] = true
			walk(ah.toAlias, p)
			visited[ah.toAlias] = false
		}
	}
	walk(sourceAlias, Path{})
	return out
}

// MatchPath reports whether q's join graph shares the induction path: there
// is a chain of q's join edges realizing every hop (same base tables, same
// join columns, legal direction). On success it returns the alias(es) of the
// path's source table from which the chain can start — the router intersects
// the query's filters on those aliases with the cut's source predicate
// (§4.1.2).
func MatchPath(q *workload.Query, p Path) ([]string, bool) {
	if len(p.Hops) == 0 {
		return nil, false
	}
	// frontier[i] = set of aliases reachable after matching i hops, keyed by
	// the source alias the chain started from.
	type state struct{ current, source string }
	var frontier []state
	for _, a := range q.AliasesOf(p.Source()) {
		frontier = append(frontier, state{current: a, source: a})
	}
	for _, hop := range p.Hops {
		var next []state // a handful of aliases: a scan dedups it
		for _, st := range frontier {
			for _, ah := range legalHopsFrom(q, st.current, AllowAll) {
				// Match tables and columns; the join type may differ
				// (e.g. a semi join shares an inner join's path) as
				// long as the direction is legal, which
				// legalHopsFrom already enforced.
				if ah.hop.FromTable != hop.FromTable || ah.hop.FromColumn != hop.FromColumn ||
					ah.hop.ToTable != hop.ToTable || ah.hop.ToColumn != hop.ToColumn {
					continue
				}
				if ns := (state{current: ah.toAlias, source: st.source}); !slices.Contains(next, ns) {
					next = append(next, ns)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil, false
		}
	}
	var sources []string
	for _, st := range frontier {
		if !slices.Contains(sources, st.source) {
			sources = append(sources, st.source)
		}
	}
	return sources, true
}
