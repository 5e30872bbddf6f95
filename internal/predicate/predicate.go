// Package predicate defines the filter-predicate AST used across MTO:
// simple predicates extracted from queries (§3.2.1), candidate cuts for
// qd-trees (§2.1.3), and the zone-map skipping checks in the simulated
// engine. It supports =, ≠, <, ≤, >, ≥, IN, NOT IN, LIKE, NOT LIKE,
// column-vs-column comparison, and arbitrary AND/OR combinations (§4.1.1).
//
// A predicate has one evaluator per domain, each normalizing it once
// against the schema (normalize) so that none refuses a shape:
//
//   - rows: FillMask over a table, FillRows over a row list — record
//     routing, qd-tree builds, induced-cut literals, the reference engine;
//   - zones: CompileRanges, three-valued over a region of intervals by
//     column ordinal — a zone map or a qd-tree node's region. TriFalse means no
//     row in the region can satisfy the predicate, TriTrue that every row
//     whose columns are neither NULL nor NaN does;
//   - codes: CompileScan, a plan a storage engine runs over encoded pages.
//
// All three share one rule: ints and floats compare numerically and
// exactly, and a NULL or a NaN matches no comparison, "<>" included.
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"mto/internal/value"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// negate returns the complementary operator.
func (o Op) negate() Op {
	switch o {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	default: // Ge
		return Lt
	}
}

// Mirror returns the operator with its operands swapped: a op b ⇔ b op' a.
func (o Op) Mirror() Op {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default: // Eq, Ne
		return o
	}
}

// Apply applies o to an ordering result (value.Compare, bytes.Compare).
func (o Op) Apply(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	default: // Ge
		return cmp >= 0
	}
}

// Tri is a three-valued logic result.
type Tri uint8

// Tri-state values. The ordering (False < Maybe < True) is used by And/Or.
const (
	TriFalse Tri = iota
	TriMaybe
	TriTrue
)

// String returns "false", "maybe", or "true".
func (t Tri) String() string {
	switch t {
	case TriFalse:
		return "false"
	case TriTrue:
		return "true"
	default:
		return "maybe"
	}
}

func triFromBool(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}

// Predicate is a boolean filter over one table's rows.
type Predicate interface {
	// Negate returns the logical complement over well-typed rows: a NULL
	// or NaN row matches neither p nor its negation (nor does any row
	// against a NULL, NaN or other-kind literal). Regions stay sound
	// regardless, since such a row matches no filter on that column.
	Negate() Predicate
	// VisitColumns calls fn for every referenced column name.
	VisitColumns(fn func(string))
	fmt.Stringer
}

// Comparison compares a column against a literal: col op value.
type Comparison struct {
	Column string
	Op     Op
	Value  value.Value
}

// NewComparison returns col op v.
func NewComparison(col string, op Op, v value.Value) *Comparison {
	return &Comparison{Column: col, Op: op, Value: v}
}

// Negate implements Predicate.
func (c *Comparison) Negate() Predicate {
	return &Comparison{Column: c.Column, Op: c.Op.negate(), Value: c.Value}
}

// VisitColumns implements Predicate.
func (c *Comparison) VisitColumns(fn func(string)) { fn(c.Column) }

// String implements Predicate.
func (c *Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.Column, c.Op, c.Value)
}

// ColumnComparison compares two columns of the same table: left op right
// (e.g. A.X < A.Y, supported per §4.1.1).
type ColumnComparison struct {
	Left  string
	Op    Op
	Right string
}

// Negate implements Predicate.
func (c *ColumnComparison) Negate() Predicate {
	return &ColumnComparison{Left: c.Left, Op: c.Op.negate(), Right: c.Right}
}

// VisitColumns implements Predicate.
func (c *ColumnComparison) VisitColumns(fn func(string)) {
	fn(c.Left)
	fn(c.Right)
}

// String implements Predicate.
func (c *ColumnComparison) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// InList is col IN (values) or col NOT IN (values).
type InList struct {
	Column  string
	Values  []value.Value
	Negate_ bool
}

// NewIn returns col IN (vals).
func NewIn(col string, vals ...value.Value) *InList {
	return &InList{Column: col, Values: vals}
}

// NewNotIn returns col NOT IN (vals).
func NewNotIn(col string, vals ...value.Value) *InList {
	return &InList{Column: col, Values: vals, Negate_: true}
}

// Negate implements Predicate.
func (p *InList) Negate() Predicate {
	return &InList{Column: p.Column, Values: p.Values, Negate_: !p.Negate_}
}

// VisitColumns implements Predicate.
func (p *InList) VisitColumns(fn func(string)) { fn(p.Column) }

// String implements Predicate.
func (p *InList) String() string {
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		parts[i] = v.String()
	}
	op := "IN"
	if p.Negate_ {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", p.Column, op, strings.Join(parts, ", "))
}

// Like is col LIKE pattern or col NOT LIKE pattern, with SQL % and _
// wildcards.
type Like struct {
	Column  string
	Pattern string
	Negate_ bool
}

// NewLike returns col LIKE pattern.
func NewLike(col, pattern string) *Like { return &Like{Column: col, Pattern: pattern} }

// NewNotLike returns col NOT LIKE pattern.
func NewNotLike(col, pattern string) *Like {
	return &Like{Column: col, Pattern: pattern, Negate_: true}
}

// Negate implements Predicate.
func (p *Like) Negate() Predicate {
	return &Like{Column: p.Column, Pattern: p.Pattern, Negate_: !p.Negate_}
}

// VisitColumns implements Predicate.
func (p *Like) VisitColumns(fn func(string)) { fn(p.Column) }

// String implements Predicate.
func (p *Like) String() string {
	op := "LIKE"
	if p.Negate_ {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s %q", p.Column, op, p.Pattern)
}

// And is the conjunction of its children.
type And struct{ Children []Predicate }

// NewAnd conjoins ps, flattening nested Ands. With no children it is TRUE.
func NewAnd(ps ...Predicate) Predicate {
	flat := make([]Predicate, 0, len(ps))
	for _, p := range ps {
		if a, ok := p.(*And); ok {
			flat = append(flat, a.Children...)
		} else if p != nil {
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return True()
	case 1:
		return flat[0]
	}
	return &And{Children: flat}
}

// Negate implements Predicate.
func (a *And) Negate() Predicate {
	neg := make([]Predicate, len(a.Children))
	for i, c := range a.Children {
		neg[i] = c.Negate()
	}
	return NewOr(neg...)
}

// VisitColumns implements Predicate.
func (a *And) VisitColumns(fn func(string)) {
	for _, c := range a.Children {
		c.VisitColumns(fn)
	}
}

// String implements Predicate.
func (a *And) String() string { return joinChildren(a.Children, " AND ") }

// Or is the disjunction of its children.
type Or struct{ Children []Predicate }

// NewOr disjoins ps, flattening nested Ors. With no children it is FALSE.
func NewOr(ps ...Predicate) Predicate {
	flat := make([]Predicate, 0, len(ps))
	for _, p := range ps {
		if o, ok := p.(*Or); ok {
			flat = append(flat, o.Children...)
		} else if p != nil {
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return False()
	case 1:
		return flat[0]
	}
	return &Or{Children: flat}
}

// Negate implements Predicate.
func (o *Or) Negate() Predicate {
	neg := make([]Predicate, len(o.Children))
	for i, c := range o.Children {
		neg[i] = c.Negate()
	}
	return NewAnd(neg...)
}

// VisitColumns implements Predicate.
func (o *Or) VisitColumns(fn func(string)) {
	for _, c := range o.Children {
		c.VisitColumns(fn)
	}
}

// String implements Predicate.
func (o *Or) String() string { return joinChildren(o.Children, " OR ") }

func joinChildren(cs []Predicate, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Const is a constant predicate (TRUE or FALSE).
type Const bool

// True returns the always-true predicate.
func True() Predicate { return Const(true) }

// False returns the always-false predicate.
func False() Predicate { return Const(false) }

// Negate implements Predicate.
func (c Const) Negate() Predicate { return Const(!c) }

// VisitColumns implements Predicate.
func (c Const) VisitColumns(func(string)) {}

// String implements Predicate.
func (c Const) String() string {
	if c {
		return "TRUE"
	}
	return "FALSE"
}

// Columns returns the distinct column names referenced by p, sorted.
func Columns(p Predicate) []string {
	seen := map[string]bool{}
	p.VisitColumns(func(c string) { seen[c] = true })
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two predicates have the same canonical rendering.
// It is used to deduplicate candidate cuts extracted from workloads.
func Equal(a, b Predicate) bool { return a.String() == b.String() }
