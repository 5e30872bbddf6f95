// Package qdtree implements the qd-tree (query-data tree) of Yang et al.
// [57], extended with join-induced cuts as required by MTO (§2.1, §4.1.2 of
// the paper). A qd-tree is a binary decision tree: each inner node holds a
// cut; records satisfying the cut go to the left ("yes") child, others to
// the right. Leaves correspond to data blocks. The same tree routes records
// offline (block assignment) and queries online (block skipping).
package qdtree

import (
	"mto/internal/induce"
	"mto/internal/predicate"
	"mto/internal/relation"
)

// Cut is a node split criterion. Two implementations exist: SimpleCut (a
// filter predicate over the table) and InducedCut (a join-induced predicate,
// §4.1).
type Cut interface {
	// FillMask sets bit k of mask (zeroed, (len(rows)+63)/64 words) when
	// row rows[k] of t routes to the left ("yes") child; a nil rows means
	// every row of t, bit r for row r. g, when not nil, lends the buffers
	// a row list's values are gathered into.
	FillMask(t *relation.Table, rows []int32, mask []uint64, g *predicate.Gather)
	// LeftRanges / RightRanges refine the node region for each child.
	LeftRanges(region predicate.Ranges) predicate.Ranges
	RightRanges(region predicate.Ranges) predicate.Ranges
	// JoinKeys identifies the joins the cut's induction path traverses
	// (empty for simple cuts); cardinality adjustment de-duplicates on
	// these (§4.2).
	JoinKeys() []string
	// JoinRates gives, parallel to JoinKeys, the effective sampling rate
	// of each hop's scanned table, or nil to use the build's dataset-wide
	// CA rate for every hop.
	JoinRates() []float64
	// IsInduced reports whether this is a join-induced cut.
	IsInduced() bool
	// InductionDepth is the length of the induction path (0 for simple).
	InductionDepth() int
	// MemBytes estimates the cut's in-memory footprint.
	MemBytes() int
	String() string
	// induced returns a join-induced cut's predicate, nil for a simple cut.
	induced() *induce.Predicate
}

// SimpleCut is a cut over the table's own columns.
type SimpleCut struct {
	Pred predicate.Predicate
}

// NewSimpleCut wraps a predicate as a cut.
func NewSimpleCut(p predicate.Predicate) *SimpleCut { return &SimpleCut{Pred: p} }

// FillMask implements Cut.
func (c *SimpleCut) FillMask(t *relation.Table, rows []int32, mask []uint64, g *predicate.Gather) {
	if rows == nil {
		predicate.FillMask(c.Pred, t, mask)
	} else {
		predicate.FillRowsInto(c.Pred, t, rows, mask, g)
	}
}

// LeftRanges implements Cut.
func (c *SimpleCut) LeftRanges(region predicate.Ranges) predicate.Ranges {
	return region.Refine(predicate.RangesOf(c.Pred))
}

// RightRanges implements Cut.
func (c *SimpleCut) RightRanges(region predicate.Ranges) predicate.Ranges {
	return region.Refine(predicate.RangesOf(c.Pred.Negate()))
}

func (c *SimpleCut) induced() *induce.Predicate { return nil }

// JoinKeys implements Cut.
func (c *SimpleCut) JoinKeys() []string { return nil }

// JoinRates implements Cut.
func (c *SimpleCut) JoinRates() []float64 { return nil }

// IsInduced implements Cut.
func (c *SimpleCut) IsInduced() bool { return false }

// InductionDepth implements Cut.
func (c *SimpleCut) InductionDepth() int { return 0 }

// MemBytes implements Cut (a rough constant for the predicate structure).
func (c *SimpleCut) MemBytes() int { return 48 + len(c.Pred.String()) }

// String implements Cut.
func (c *SimpleCut) String() string { return c.Pred.String() }

// InducedCut wraps a join-induced predicate. Record routing uses the
// literal form; query routing uses the logical form: subsumption between
// the query's join graph and the cut's induction path (§4.1.2).
type InducedCut struct {
	Ind *induce.Predicate
}

// NewInducedCut wraps an induced predicate as a cut.
func NewInducedCut(ip *induce.Predicate) *InducedCut { return &InducedCut{Ind: ip} }

// FillMask implements Cut.
func (c *InducedCut) FillMask(t *relation.Table, rows []int32, mask []uint64, _ *predicate.Gather) {
	c.Ind.FillMask(t, rows, mask)
}

// LeftRanges implements Cut: induced cuts do not constrain the target
// table's own columns (they constrain join membership), so the region is
// unchanged.
func (c *InducedCut) LeftRanges(region predicate.Ranges) predicate.Ranges { return region }

// RightRanges implements Cut.
func (c *InducedCut) RightRanges(region predicate.Ranges) predicate.Ranges { return region }

func (c *InducedCut) induced() *induce.Predicate { return c.Ind }

// JoinKeys implements Cut.
func (c *InducedCut) JoinKeys() []string { return c.Ind.Path.JoinKeys() }

// JoinRates implements Cut.
func (c *InducedCut) JoinRates() []float64 { return c.Ind.HopRates }

// IsInduced implements Cut.
func (c *InducedCut) IsInduced() bool { return true }

// InductionDepth implements Cut.
func (c *InducedCut) InductionDepth() int { return c.Ind.Depth() }

// MemBytes implements Cut: logical form plus the literal roaring bitmaps.
func (c *InducedCut) MemBytes() int { return 64 + c.Ind.MemBytes() }

// String implements Cut.
func (c *InducedCut) String() string { return c.Ind.String() }
