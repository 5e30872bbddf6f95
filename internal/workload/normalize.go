package workload

import (
	"sort"
	"strings"

	"mto/internal/predicate"
)

// Normalize returns a canonical cache-key string for the query: two
// queries with equal Normalize strings produce the same execution result
// (up to the declaration order of their aggregates and their ID), so a
// query-result cache may key on it. The rendering is insensitive to every
// syntactic order that cannot change the result:
//
//   - filter aliases are sorted, and each alias's conjunction is rendered
//     via predicate.Canonical (sorted conjuncts, sorted IN-list literals,
//     strconv-canonical literals);
//   - aggregates are sorted by their canonical spec strings — the result
//     holds one value per spec, so a cache can restore any declaration
//     order from the specs (engine.ReorderAggregates);
//   - the query ID and Weight are excluded: they never affect the result
//     payload (the cache rewrites Result.Query on a hit).
//
// Table references and join edges keep their declaration order: table
// order fixes the per-table fold order of the simulated-seconds
// accounting, and join order the semantic-reduction fixpoint schedule, so
// reordering either may legitimately change Result bytes.
//
// Normalize replaces the ad-hoc q.String() keys call sites used before:
// String preserves declaration order everywhere and renders display
// decorations (σ/γ glyphs), so syntactically-permuted duplicates used to
// miss each other.
func (q *Query) Normalize() string {
	var sb strings.Builder
	sb.Grow(128)
	sb.WriteString("t:")
	for i, r := range q.Tables {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(r.Name())
		sb.WriteByte('=')
		sb.WriteString(r.Table)
	}
	sb.WriteString("|j:")
	for i, j := range q.Joins {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(j.String())
	}
	sb.WriteString("|f:")
	aliases := make([]string, 0, len(q.Filters))
	for a := range q.Filters {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for i, a := range aliases {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(a)
		sb.WriteByte('{')
		sb.WriteString(predicate.Canonical(q.Filters[a]))
		sb.WriteByte('}')
	}
	sb.WriteString("|a:")
	if len(q.Aggregates) > 0 {
		specs := make([]string, len(q.Aggregates))
		for i, agg := range q.Aggregates {
			specs[i] = agg.String()
		}
		sort.Strings(specs)
		sb.WriteString(strings.Join(specs, ","))
	}
	if !q.GroupBy.IsZero() {
		sb.WriteString("|g:")
		sb.WriteString(q.GroupBy.String())
	}
	return sb.String()
}
