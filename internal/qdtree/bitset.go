package qdtree

import "math/bits"

// Dense word-level bitsets back the greedy build: each candidate cut's
// membership over the build table is one bitset (8× smaller than a []bool),
// and each node's row set is another, so the per-cut left-count — the
// hottest loop of offline optimization — collapses from a per-row slice
// scan into AND + popcount over 64-row words.

// bitset is a fixed-size bitset over row indexes [0, 64·len).
type bitset []uint64

// newBitset returns a zeroed bitset able to hold rows [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// rowSet is one build node's row membership: a bitset plus its cached
// cardinality and the word window [lo, hi) containing every set bit, so
// per-cut scans skip the words owned by sibling subtrees.
type rowSet struct {
	bits   bitset
	count  int
	lo, hi int
}

// fullRowSet covers every row of an n-row table.
func fullRowSet(n int) *rowSet {
	rs := &rowSet{bits: newBitset(n), count: n, hi: (n + 63) >> 6}
	for i := 0; i < n>>6; i++ {
		rs.bits[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		rs.bits[n>>6] = 1<<uint(rem) - 1
	}
	return rs
}

// andCount returns |rs ∩ m| via word-level AND + popcount. m must span the
// same table (stray bits past the row count exist in neither operand).
func (rs *rowSet) andCount(m bitset) int {
	n := 0
	for w := rs.lo; w < rs.hi; w++ {
		n += bits.OnesCount64(rs.bits[w] & m[w])
	}
	return n
}

// partition splits rs into (rs ∩ m, rs \ m), computing each side's
// cardinality and word window in the same pass.
func (rs *rowSet) partition(m bitset) (left, right *rowSet) {
	left = &rowSet{bits: make(bitset, len(rs.bits)), lo: -1}
	right = &rowSet{bits: make(bitset, len(rs.bits)), lo: -1}
	for w := rs.lo; w < rs.hi; w++ {
		pw := rs.bits[w]
		if pw == 0 {
			continue
		}
		if lw := pw & m[w]; lw != 0 {
			left.bits[w] = lw
			left.count += bits.OnesCount64(lw)
			if left.lo < 0 {
				left.lo = w
			}
			left.hi = w + 1
		}
		if rw := pw &^ m[w]; rw != 0 {
			right.bits[w] = rw
			right.count += bits.OnesCount64(rw)
			if right.lo < 0 {
				right.lo = w
			}
			right.hi = w + 1
		}
	}
	if left.lo < 0 {
		left.lo = 0
	}
	if right.lo < 0 {
		right.lo = 0
	}
	return left, right
}
