package bitmap

import "math/bits"

// Dense is an uncompressed fixed-capacity bitset over indexes [0, n). It
// complements the compressed Bitmap: Bitmap compresses sorted key universes
// for long-lived induced cuts, while Dense backs transient per-query row
// sets in the execution engine, where scattered single-bit updates and
// word-level AND/iteration dominate and compression would only add
// branching. The zero-extra-indirection representation (a plain []uint64)
// lets hot loops range over words directly.
type Dense []uint64

// NewDense returns a zeroed bitset able to hold indexes [0, n).
func NewDense(n int) Dense { return make(Dense, (n+63)>>6) }

// Set marks index i.
func (d Dense) Set(i int) { d[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks index i.
func (d Dense) Clear(i int) { d[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether index i is set.
func (d Dense) Get(i int) bool { return d[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (d Dense) Count() int {
	n := 0
	for _, w := range d {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of d.
func (d Dense) Clone() Dense {
	out := make(Dense, len(d))
	copy(out, d)
	return out
}

// ForEach calls fn for every set index in ascending order.
func (d Dense) ForEach(fn func(i int)) {
	for w, word := range d {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			fn(w<<6 | b)
		}
	}
}
