package induce

import (
	"fmt"
	"math"

	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

// Predicate is a join-induced predicate on a target table (§4.1). The
// logical form is "target.col IN (SELECT ... chain of semi joins ... WHERE
// sourceCut)"; EvaluateAll materializes the literal form. Qd-trees store both:
// the logical form routes queries, the literal form routes records.
type Predicate struct {
	// Path is the induction path from the source table to the target.
	Path joingraph.Path
	// SourceCut is the simple predicate over the source table.
	SourceCut predicate.Predicate

	// HopRates holds, per hop, the effective sampling rate of the hop's
	// scanned table when the literal was last evaluated (1 for tables kept
	// whole). Cardinality adjustment multiplies the rates of the joins on
	// a path instead of assuming a uniform s per join (§4.2). Nil means
	// "use the dataset-wide rate for every hop".
	HopRates []float64

	// stages[i] is the key set after stage i of the semi-join chain:
	// stages[0] holds the projection of source rows satisfying SourceCut
	// onto Hops[0].FromColumn; stages[i] (i ≥ 1) the projection of
	// Hops[i].FromTable rows matching stages[i-1] onto
	// Hops[i].FromColumn. The literal cut is stages[depth-1], interpreted
	// over the target's join column Hops[depth-1].ToColumn.
	stages []*keySet

	// source is the source table's schema, set by Bind: query routing
	// binds the source cut's columns, and the query's filters on the
	// source, to its ordinals.
	source *relation.Schema
}

// New returns an unevaluated join-induced predicate.
func New(path joingraph.Path, sourceCut predicate.Predicate) *Predicate {
	return &Predicate{Path: path, SourceCut: sourceCut}
}

// Bind records the schema of the source table in ds (EvaluateAll binds
// every predicate it evaluates).
func (p *Predicate) Bind(ds *relation.Dataset) {
	if t := ds.Table(p.Path.Source()); t != nil {
		p.source = t.Schema()
	}
}

// SourceSchema returns the schema Bind recorded, nil before: every column
// of the source cut then reads as unbounded, and routing through the cut
// visits both children.
func (p *Predicate) SourceSchema() *relation.Schema { return p.source }

// Target returns the base table the predicate filters.
func (p *Predicate) Target() string { return p.Path.Target() }

// TargetColumn returns the target's join column the literal cut constrains.
func (p *Predicate) TargetColumn() string { return p.Path.TargetColumn() }

// Depth returns the induction depth.
func (p *Predicate) Depth() int { return p.Path.Depth() }

// Evaluated reports whether the literal form has been materialized.
func (p *Predicate) Evaluated() bool { return len(p.stages) > 0 }

// checkJoinColumnKind enforces the keySet kind contract at evaluation time:
// scanned join columns must be int or string. Nulls inside a supported
// column are dropped (equijoins never match null); an unsupported column
// kind (e.g. float join keys) would silently evaluate to an always-empty —
// and therefore wrong — literal cut, so it is an explicit error instead.
func checkJoinColumnKind(t *relation.Table, ci int) error {
	kind := t.Schema().Column(ci).Type
	if kind != value.KindInt && kind != value.KindString {
		return fmt.Errorf("induce: unsupported %s join column %s.%s",
			kind, t.Schema().Table(), t.Schema().Column(ci).Name)
	}
	return nil
}

// literal returns the final-stage key set (panics if unevaluated).
func (p *Predicate) literal() *keySet {
	if !p.Evaluated() {
		panic("induce: predicate not evaluated")
	}
	return p.stages[len(p.stages)-1]
}

// FillMask sets bit k of mask for every rows[k] (every row of t when rows
// is nil) whose target join column holds a key of the literal cut: record
// routing, §4.1.2. t must be the target table; NULL keys never match.
func (p *Predicate) FillMask(t *relation.Table, rows []int32, mask []uint64) {
	lit := p.literal()
	if ci, ok := t.Schema().ColumnIndex(p.TargetColumn()); ok {
		fillProbeMask(t, ci, rows, lit, mask)
	}
}

// LiteralSize returns the cardinality of the literal cut.
func (p *Predicate) LiteralSize() int { return p.literal().card() }

// CA returns the cardinality adjustment for a given sample rate: s^d where
// d is the induction depth (§4.2). Simple cuts have CA 1; this predicate's
// CA shrinks with depth because joining d independent samples thins the
// result multiplicatively.
func (p *Predicate) CA(sampleRate float64) float64 {
	return math.Pow(sampleRate, float64(p.Depth()))
}

// MemBytes estimates the in-memory footprint of the literal stages.
func (p *Predicate) MemBytes() int {
	n := 0
	for _, s := range p.stages {
		if s != nil {
			n += s.memBytes()
		}
	}
	return n
}

// String renders the logical form as nested semi-join subqueries, matching
// the paper's Table 1 presentation.
func (p *Predicate) String() string {
	hops := p.Path.Hops
	// Build inside-out: innermost subquery selects from the source.
	inner := fmt.Sprintf("SELECT %s.%s FROM %s WHERE %s",
		p.Path.Source(), hops[0].FromColumn, p.Path.Source(), p.SourceCut)
	for i := 1; i < len(hops); i++ {
		inner = fmt.Sprintf("SELECT %s.%s FROM %s WHERE %s.%s IN (%s)",
			hops[i].FromTable, hops[i].FromColumn, hops[i].FromTable,
			hops[i].FromTable, hops[i-1].ToColumn, inner)
	}
	return fmt.Sprintf("%s.%s IN (%s)", p.Target(), p.TargetColumn(), inner)
}

// stageIndexesForTable returns every stage a table participates in as the
// scanned relation: the source is stage 0; Hops[i].FromTable is stage i.
// A base table can appear in several stages of one path — joingraph only
// forbids revisiting an *alias*, so self-join aliases of the same base
// table legally occupy distinct hops — and incremental maintenance must
// update all of them. The result is empty when the table is not scanned by
// this predicate (the target table itself is only probed, never scanned).
func (p *Predicate) stageIndexesForTable(table string) []int {
	var out []int
	if p.Path.Source() == table {
		out = append(out, 0)
	}
	for i := 1; i < len(p.Path.Hops); i++ {
		if p.Path.Hops[i].FromTable == table {
			out = append(out, i)
		}
	}
	return out
}

// AffectedBy reports whether data changes to the table require updating
// this predicate's literal cut (§5.2: the changed table lies on the
// induction path, excluding the target).
func (p *Predicate) AffectedBy(table string) bool {
	return p.Evaluated() && len(p.stageIndexesForTable(table)) > 0
}

// mutableStage returns stage i's key set, first cloning it if it is shared
// with other predicates (batched evaluation deduplicates common prefixes);
// the clone replaces the shared set in this predicate only, so incremental
// maintenance never leaks into siblings.
func (p *Predicate) mutableStage(i int) *keySet {
	s := p.stages[i]
	if s.shared {
		s = s.clone()
		p.stages[i] = s
	}
	return s
}

// ApplyInsert incrementally updates the literal stages for rows newly
// appended to the named table. Under referential integrity and the
// unique-source-column restriction, inserted rows can extend key sets but
// never require re-scanning downstream tables (no existing row can
// reference a brand-new unique key), so the update is local to the changed
// table's stage (§5.2).
func (p *Predicate) ApplyInsert(ds *relation.Dataset, table string, rows []int) error {
	return p.applyChange(ds, table, rows, true)
}

// ApplyDelete incrementally removes the contributions of the given rows
// (which must still be present in the table when called). Referential
// integrity guarantees no other surviving row references the removed keys.
func (p *Predicate) ApplyDelete(ds *relation.Dataset, table string, rows []int) error {
	return p.applyChange(ds, table, rows, false)
}

func (p *Predicate) applyChange(ds *relation.Dataset, table string, rows []int, insert bool) error {
	if !p.Evaluated() {
		return fmt.Errorf("induce: predicate not evaluated")
	}
	stages := p.stageIndexesForTable(table)
	if len(stages) == 0 {
		return nil // table not on the path: nothing to do
	}
	tbl := ds.Table(table)
	if tbl == nil {
		return fmt.Errorf("induce: missing table %q", table)
	}
	// Stage order matters when the table occupies several stages: an insert
	// must extend earlier stages first so a later stage's qualifying check
	// sees keys added by the same batch (rows inserted together may
	// reference each other); a delete must shrink later stages first so its
	// qualifying check still sees the pre-delete contents of earlier stages
	// (the contribution being removed was admitted by them). Either way the
	// result matches a full re-evaluation under referential integrity.
	if !insert {
		for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
			stages[i], stages[j] = stages[j], stages[i]
		}
	}
	for _, stage := range stages {
		if err := p.applyChangeStage(tbl, table, stage, rows, insert); err != nil {
			return err
		}
	}
	return nil
}

// applyChangeStage applies one stage's incremental update for rows of tbl.
func (p *Predicate) applyChangeStage(tbl *relation.Table, table string, stage int, rows []int, insert bool) error {
	hops := p.Path.Hops
	outCol, ok := tbl.Schema().ColumnIndex(hops[stage].FromColumn)
	if !ok {
		return fmt.Errorf("induce: %s has no column %q", table, hops[stage].FromColumn)
	}
	if err := checkJoinColumnKind(tbl, outCol); err != nil {
		return err
	}
	for _, r := range rows {
		if r < 0 || r >= tbl.NumRows() {
			return fmt.Errorf("induce: row %d out of range for %s", r, table)
		}
	}
	var qualifies func(k, row int) bool
	if stage == 0 {
		rows32 := make([]int32, len(rows))
		for k, r := range rows {
			rows32[k] = int32(r)
		}
		match := make([]uint64, (len(rows)+63)/64)
		predicate.FillRows(p.SourceCut, tbl, rows32, match)
		qualifies = func(k, _ int) bool { return match[k>>6]>>(uint(k)&63)&1 == 1 }
	} else {
		inCol, ok := tbl.Schema().ColumnIndex(hops[stage-1].ToColumn)
		if !ok {
			return fmt.Errorf("induce: %s has no column %q", table, hops[stage-1].ToColumn)
		}
		if err := checkJoinColumnKind(tbl, inCol); err != nil {
			return err
		}
		prev := p.stages[stage-1]
		qualifies = func(_, row int) bool { return prev.contains(tbl.Value(row, inCol)) }
	}
	set := p.mutableStage(stage)
	for k, r := range rows {
		if !qualifies(k, r) {
			continue
		}
		if insert {
			set.add(tbl.Value(r, outCol))
		} else {
			set.remove(tbl.Value(r, outCol))
		}
	}
	return nil
}
