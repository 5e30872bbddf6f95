package qdtree

import (
	"fmt"
	"strings"
	"sync/atomic"

	"mto/internal/predicate"
)

// Node is one qd-tree node. Inner nodes carry a Cut; leaves carry a leaf
// index (assigned in left-to-right order) identifying their data block
// group.
type Node struct {
	Cut         Cut
	Left, Right *Node
	Parent      *Node

	// LeafIndex is the leaf's position in Tree.Leaves() order; -1 for
	// inner nodes.
	LeafIndex int

	// SampleRows is the number of (sample) rows covered at build time.
	SampleRows int
	// EstRows is the cardinality-adjusted estimate of full-data rows
	// covered (§4.2). Equal to SampleRows when built without sampling.
	EstRows float64
	// Region is the per-column constraint region accumulated from simple
	// cuts on the path from the root.
	Region predicate.Ranges
}

// IsLeaf reports whether the node has no cut.
func (n *Node) IsLeaf() bool { return n.Cut == nil }

// Tree is a qd-tree for one table.
type Tree struct {
	Table string
	Root  *Node
	// BlockSize is the target rows per block the tree was built for (in
	// full-data terms).
	BlockSize int

	leaves []*Node
	router atomic.Pointer[router] // prepared query routing; reset by Reindex
}

// Leaves returns the leaf nodes in left-to-right order. The slice is
// recomputed lazily after structural changes (see Reindex).
func (t *Tree) Leaves() []*Node {
	if t.leaves == nil {
		t.Reindex()
	}
	return t.leaves
}

// NumLeaves returns the number of leaves (== number of block groups).
func (t *Tree) NumLeaves() int { return len(t.Leaves()) }

// Reindex recomputes leaf order and indexes after a structural change
// (subtree replacement during reorganization).
func (t *Tree) Reindex() {
	t.router.Store(nil)
	t.leaves = t.leaves[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			n.LeafIndex = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		n.LeafIndex = -1
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
}

// Stats summarizes a tree for the paper's Table 2.
type Stats struct {
	TotalCuts   int
	InducedCuts int
	SumDepth    int // sum of induction depths over induced cuts
	MaxDepth    int // max induction depth
	MemBytes    int
	Leaves      int
	TreeHeight  int
}

// AvgInductionDepth returns the mean induction depth of induced cuts.
func (s Stats) AvgInductionDepth() float64 {
	if s.InducedCuts == 0 {
		return 0
	}
	return float64(s.SumDepth) / float64(s.InducedCuts)
}

// Add accumulates another tree's stats (for dataset-wide totals).
func (s Stats) Add(o Stats) Stats {
	out := Stats{
		TotalCuts:   s.TotalCuts + o.TotalCuts,
		InducedCuts: s.InducedCuts + o.InducedCuts,
		SumDepth:    s.SumDepth + o.SumDepth,
		MaxDepth:    s.MaxDepth,
		MemBytes:    s.MemBytes + o.MemBytes,
		Leaves:      s.Leaves + o.Leaves,
		TreeHeight:  s.TreeHeight,
	}
	if o.MaxDepth > out.MaxDepth {
		out.MaxDepth = o.MaxDepth
	}
	if o.TreeHeight > out.TreeHeight {
		out.TreeHeight = o.TreeHeight
	}
	return out
}

// Stats walks the tree and summarizes it.
func (t *Tree) Stats() Stats {
	var s Stats
	var walk func(n *Node, h int)
	walk = func(n *Node, h int) {
		if n == nil {
			return
		}
		if h > s.TreeHeight {
			s.TreeHeight = h
		}
		if n.IsLeaf() {
			s.Leaves++
			s.MemBytes += 64 // node overhead
			return
		}
		s.TotalCuts++
		s.MemBytes += 64 + n.Cut.MemBytes()
		if n.Cut.IsInduced() {
			s.InducedCuts++
			d := n.Cut.InductionDepth()
			s.SumDepth += d
			if d > s.MaxDepth {
				s.MaxDepth = d
			}
		}
		walk(n.Left, h+1)
		walk(n.Right, h+1)
	}
	walk(t.Root, 0)
	return s
}

// InducedCuts returns every join-induced cut in the tree, in pre-order. The
// core re-evaluates these on the full dataset after sampled optimization,
// and updates them under data changes (§5.2).
func (t *Tree) InducedCuts() []*InducedCut {
	var out []*InducedCut
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		if ic, ok := n.Cut.(*InducedCut); ok {
			out = append(out, ic)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// Nodes returns all nodes in breadth-first order (the order §5.1.3 computes
// rewards in).
func (t *Tree) Nodes() []*Node {
	if t.Root == nil {
		return nil
	}
	queue := []*Node{t.Root}
	var out []*Node
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		if !n.IsLeaf() {
			queue = append(queue, n.Left, n.Right)
		}
	}
	return out
}

// Dump renders the tree as indented text (used by cmd/mtoviz).
func (t *Tree) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "qd-tree for %s (block size %d)\n", t.Table, t.BlockSize)
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			fmt.Fprintf(&sb, "%s└ leaf %d: %d rows (est %.0f)\n", indent, n.LeafIndex, n.SampleRows, n.EstRows)
			return
		}
		kind := "simple"
		if n.Cut.IsInduced() {
			kind = fmt.Sprintf("induced d=%d", n.Cut.InductionDepth())
		}
		fmt.Fprintf(&sb, "%s├ [%s] %s\n", indent, kind, n.Cut)
		walk(n.Left, indent+"│ ")
		walk(n.Right, indent+"│ ")
	}
	t.Leaves() // ensure leaf indexes are assigned
	walk(t.Root, "")
	return sb.String()
}

// Clone returns a structural deep copy of the tree: all nodes are fresh,
// while cuts (immutable during routing and reorganization) are shared.
// Background reorganization (§5.1.1) mutates a clone and swaps it in.
func (t *Tree) Clone() *Tree {
	out := &Tree{Table: t.Table, BlockSize: t.BlockSize}
	var copyNode func(n *Node, parent *Node) *Node
	copyNode = func(n *Node, parent *Node) *Node {
		if n == nil {
			return nil
		}
		c := &Node{
			Cut:        n.Cut,
			Parent:     parent,
			LeafIndex:  -1,
			SampleRows: n.SampleRows,
			EstRows:    n.EstRows,
			Region:     n.Region,
		}
		c.Left = copyNode(n.Left, c)
		c.Right = copyNode(n.Right, c)
		return c
	}
	out.Root = copyNode(t.Root, nil)
	out.Reindex()
	return out
}
