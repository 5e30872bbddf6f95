// Package bitmap implements a Roaring-style compressed bitmap over uint32
// keys. MTO uses it to store the literal form of join-induced cuts — IN lists
// over high-cardinality key columns — compactly (§4.1.2 of the paper). Dense
// (dense.go) is the plain bitset the engine's row sets use.
//
// Values are partitioned into 2^16-value chunks by their high 16 bits. Each
// chunk is one of three container types, mirroring the Roaring paper:
//
//   - array: sorted []uint16, used while cardinality ≤ 4096
//   - bitmap: 1024-word fixed bitset, used for dense chunks
//   - run: sorted list of [start, length] intervals, adopted when it is the
//     smallest representation (via Optimize)
//
// The zero Bitmap is an empty bitmap ready for use.
package bitmap

import (
	"math/bits"
	"slices"
	"sort"
)

const (
	arrayMaxCard    = 4096 // beyond this an array container converts to bitmap
	bitmapWords     = 1024 // 65536 bits
	containerValues = 1 << 16
)

// container is the per-chunk storage. Exactly one of array / words / runs is
// in use, selected by kind.
type containerKind uint8

const (
	kindArray containerKind = iota
	kindBitmap
	kindRun
)

type interval struct {
	start  uint16
	length uint16 // run covers [start, start+length] inclusive
}

type container struct {
	kind  containerKind
	card  int
	array []uint16
	words []uint64
	runs  []interval
}

// Bitmap is a compressed set of uint32 values. It is not safe for concurrent
// mutation; concurrent reads are fine.
type Bitmap struct {
	keys       []uint16 // sorted high-16-bit chunk keys
	containers []*container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// FromSlice builds a bitmap containing the given values.
func FromSlice(vals []uint32) *Bitmap {
	b := New()
	sorted := make([]uint32, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, v := range sorted {
		b.Add(v)
	}
	return b
}

func (b *Bitmap) containerIndex(key uint16) (int, bool) {
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	return i, i < len(b.keys) && b.keys[i] == key
}

func (b *Bitmap) getOrCreate(key uint16) *container {
	i, ok := b.containerIndex(key)
	if ok {
		return b.containers[i]
	}
	c := &container{kind: kindArray}
	b.keys = append(b.keys, 0)
	b.containers = append(b.containers, nil)
	copy(b.keys[i+1:], b.keys[i:])
	copy(b.containers[i+1:], b.containers[i:])
	b.keys[i] = key
	b.containers[i] = c
	return c
}

// Add inserts v into the set.
func (b *Bitmap) Add(v uint32) {
	key, low := uint16(v>>16), uint16(v)
	b.getOrCreate(key).add(low)
}

// AddMany inserts every value of vals. It is equivalent to calling Add per
// value but sorts the batch first so each chunk's container is resolved
// once, with its incoming count known up front: a container guaranteed to
// overflow the array representation upgrades to its bitset form before any
// insertion — turning O(card) sorted-array insertions into O(1) bit sets.
// Bulk construction of join-induced literal cuts feeds whole column
// projections through this path. vals may be unsorted and may contain
// duplicates; it is sorted in place.
func (b *Bitmap) AddMany(vals []uint32) {
	if len(vals) == 0 {
		return
	}
	slices.Sort(vals)
	for i := 0; i < len(vals); {
		key := uint16(vals[i] >> 16)
		j := i + 1
		for j < len(vals) && uint16(vals[j]>>16) == key {
			j++
		}
		c := b.getOrCreate(key)
		// Pre-convert when the batch cannot fit the array form (run
		// containers convert per-add anyway; doing it once is cheaper).
		// j-i counts duplicates, so this can over-trigger; Optimize picks
		// the final representation from content either way.
		if c.kind == kindRun || (c.kind == kindArray && c.card+(j-i) > arrayMaxCard) {
			c.toBitmap()
		}
		if c.kind == kindBitmap {
			for _, v := range vals[i:j] {
				w, m := uint16(v)>>6, uint64(1)<<(v&63)
				if c.words[w]&m == 0 {
					c.words[w] |= m
					c.card++
				}
			}
		} else {
			for _, v := range vals[i:j] {
				c.add(uint16(v))
			}
		}
		i = j
	}
}

// Max returns the largest value in the set, or ok=false when empty.
func (b *Bitmap) Max() (uint32, bool) {
	if len(b.keys) == 0 {
		return 0, false
	}
	c := b.containers[len(b.containers)-1]
	base := uint32(b.keys[len(b.keys)-1]) << 16
	switch c.kind {
	case kindArray:
		return base | uint32(c.array[len(c.array)-1]), true
	case kindBitmap:
		for w := len(c.words) - 1; w >= 0; w-- {
			if c.words[w] != 0 {
				return base | uint32(w<<6+63-bits.LeadingZeros64(c.words[w])), true
			}
		}
	case kindRun:
		r := c.runs[len(c.runs)-1]
		return base | (uint32(r.start) + uint32(r.length)), true
	}
	return 0, false
}

// FillDense sets bit v of d for every member v of b that fits in d,
// materializing the compressed set as a flat probe table. Bitmap containers
// copy word-for-word; array and run containers set their members bit by
// bit. Members beyond d's capacity are skipped.
func (b *Bitmap) FillDense(d Dense) {
	limit := uint64(len(d)) << 6
	for i, key := range b.keys {
		base := uint32(key) << 16
		if uint64(base) >= limit {
			return
		}
		c := b.containers[i]
		if c.kind == kindBitmap {
			copy(d[base>>6:], c.words)
			continue
		}
		c.forEach(base, func(v uint32) bool {
			if uint64(v) >= limit {
				return false
			}
			d.Set(int(v))
			return true
		})
	}
}

// Remove deletes v from the set if present.
func (b *Bitmap) Remove(v uint32) {
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.containerIndex(key)
	if !ok {
		return
	}
	c := b.containers[i]
	c.remove(low)
	if c.card == 0 {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
	}
}

// Contains reports whether v is in the set.
func (b *Bitmap) Contains(v uint32) bool {
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.containerIndex(key)
	if !ok {
		return false
	}
	return b.containers[i].contains(low)
}

// Cardinality returns the number of values in the set.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.card
	}
	return n
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{
		keys:       append([]uint16(nil), b.keys...),
		containers: make([]*container, len(b.containers)),
	}
	for i, c := range b.containers {
		out.containers[i] = c.clone()
	}
	return out
}

// ForEach calls fn for every value in ascending order; it stops early if fn
// returns false.
func (b *Bitmap) ForEach(fn func(uint32) bool) {
	for i, key := range b.keys {
		base := uint32(key) << 16
		if !b.containers[i].forEach(base, fn) {
			return
		}
	}
}

// Optimize converts each container to its smallest representation (array,
// bitmap, or run). Call it after bulk construction of literal cuts.
func (b *Bitmap) Optimize() {
	for _, c := range b.containers {
		c.optimize()
	}
}

// SizeBytes estimates the in-memory footprint of the bitmap, used by Table 2
// of the paper (qd-tree memory size).
func (b *Bitmap) SizeBytes() int {
	n := 2 * len(b.keys) // keys
	for _, c := range b.containers {
		n += 16 // container header
		switch c.kind {
		case kindArray:
			n += 2 * len(c.array)
		case kindBitmap:
			n += 8 * len(c.words)
		case kindRun:
			n += 4 * len(c.runs)
		}
	}
	return n
}

// --- container operations ---

func (c *container) clone() *container {
	out := &container{kind: c.kind, card: c.card}
	out.array = append([]uint16(nil), c.array...)
	out.words = append([]uint64(nil), c.words...)
	out.runs = append([]interval(nil), c.runs...)
	return out
}

func (c *container) toBitmap() {
	if c.kind == kindBitmap {
		return
	}
	words := make([]uint64, bitmapWords)
	switch c.kind {
	case kindArray:
		for _, v := range c.array {
			words[v>>6] |= 1 << (v & 63)
		}
	case kindRun:
		for _, r := range c.runs {
			for v := uint32(r.start); v <= uint32(r.start)+uint32(r.length); v++ {
				words[v>>6] |= 1 << (v & 63)
			}
		}
	}
	c.kind, c.words, c.array, c.runs = kindBitmap, words, nil, nil
}

func (c *container) toArray() {
	if c.kind == kindArray {
		return
	}
	arr := make([]uint16, 0, c.card)
	c.forEach(0, func(v uint32) bool {
		arr = append(arr, uint16(v))
		return true
	})
	c.kind, c.array, c.words, c.runs = kindArray, arr, nil, nil
}

func (c *container) add(v uint16) {
	switch c.kind {
	case kindArray:
		i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= v })
		if i < len(c.array) && c.array[i] == v {
			return
		}
		if len(c.array) >= arrayMaxCard {
			c.toBitmap()
			c.add(v)
			return
		}
		c.array = append(c.array, 0)
		copy(c.array[i+1:], c.array[i:])
		c.array[i] = v
		c.card++
	case kindBitmap:
		w, m := v>>6, uint64(1)<<(v&63)
		if c.words[w]&m == 0 {
			c.words[w] |= m
			c.card++
		}
	case kindRun:
		if c.contains(v) {
			return
		}
		// Simplicity over micro-optimization: run containers are produced by
		// Optimize; sparse post-optimize mutation converts back to bitmap.
		c.toBitmap()
		c.add(v)
	}
}

func (c *container) remove(v uint16) {
	switch c.kind {
	case kindArray:
		i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= v })
		if i < len(c.array) && c.array[i] == v {
			c.array = append(c.array[:i], c.array[i+1:]...)
			c.card--
		}
	case kindBitmap:
		w, m := v>>6, uint64(1)<<(v&63)
		if c.words[w]&m != 0 {
			c.words[w] &^= m
			c.card--
		}
	case kindRun:
		if !c.contains(v) {
			return
		}
		c.toBitmap()
		c.remove(v)
	}
}

func (c *container) contains(v uint16) bool {
	switch c.kind {
	case kindArray:
		i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= v })
		return i < len(c.array) && c.array[i] == v
	case kindBitmap:
		return c.words[v>>6]&(1<<(v&63)) != 0
	case kindRun:
		i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].start > v })
		if i == 0 {
			return false
		}
		r := c.runs[i-1]
		return uint32(v) <= uint32(r.start)+uint32(r.length)
	}
	return false
}

func (c *container) forEach(base uint32, fn func(uint32) bool) bool {
	switch c.kind {
	case kindArray:
		for _, v := range c.array {
			if !fn(base | uint32(v)) {
				return false
			}
		}
	case kindBitmap:
		for wi, w := range c.words {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				if !fn(base | uint32(wi<<6+bit)) {
					return false
				}
				w &^= 1 << bit
			}
		}
	case kindRun:
		for _, r := range c.runs {
			for v := uint32(r.start); v <= uint32(r.start)+uint32(r.length); v++ {
				if !fn(base | v) {
					return false
				}
			}
		}
	}
	return true
}

func (c *container) optimize() {
	// Count runs to decide the best representation.
	runs := 0
	prev := -2
	c.forEach(0, func(v uint32) bool {
		if int(v) != prev+1 {
			runs++
		}
		prev = int(v)
		return true
	})
	runBytes := 4 * runs
	arrayBytes := 2 * c.card
	bitmapBytes := 8 * bitmapWords
	switch {
	case runBytes <= arrayBytes && runBytes <= bitmapBytes:
		c.toRun()
	case arrayBytes <= bitmapBytes && c.card <= arrayMaxCard:
		c.toArray()
	default:
		c.toBitmap()
	}
}

func (c *container) toRun() {
	if c.kind == kindRun {
		return
	}
	var runs []interval
	prev := -2
	c.forEach(0, func(v uint32) bool {
		if int(v) == prev+1 {
			runs[len(runs)-1].length++
		} else {
			runs = append(runs, interval{start: uint16(v)})
		}
		prev = int(v)
		return true
	})
	c.kind, c.runs, c.array, c.words = kindRun, runs, nil, nil
}
