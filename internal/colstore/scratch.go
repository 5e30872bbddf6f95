package colstore

import "sync"

// Reusable decode scratch (the hot-path allocation pass): the page
// reader's working set is pooled so steady-state block visits allocate
// only their retained outputs, not their temporaries.
//
// Nothing returned to callers may alias a pooled buffer: every decoder
// copies into freshly allocated output slices before its scratch is
// released.

// scratch is the pooled working set of the page reader and the kernels
// over it: local row masks (with a small free list for nested AND/OR
// evaluation), unpacked code words, decoded int runs, dictionary offset
// indexes, and the current int and string views themselves.
type scratch struct {
	free   [][]uint64 // local-mask free list
	words  []uint64   // unpacked packed-domain values / dictionary codes
	ints   []int64    // decoded int values (delta / raw paths, IN probes)
	floats []float64  // decoded float values
	offs   []int32    // dictionary entry byte offsets (into the page body)
	lens   []int32    // dictionary entry byte lengths
	member []uint64   // dictionary-code membership bits (IN / LIKE)
	slots  []int32    // per-row group slots (grouped folds)
	lg     []int32    // block-local → global dictionary code translation
	intv   intView    // the current int view (page.go)
	strv   strView    // the current string view
	cols   []colSlot  // a block visit's column slots (scan.go)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch drops the views' references into page bytes before pooling s.
func putScratch(s *scratch) {
	s.intv, s.strv = intView{}, strView{}
	scratchPool.Put(s)
}

func (s *scratch) releaseMask(m []uint64) { s.free = append(s.free, m) }

// grabMaskDirty returns an nw-word mask, reusing a released one if
// available, without wiping it: for callers that overwrite every word
// before reading any.
func (s *scratch) grabMaskDirty(nw int) []uint64 {
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free = s.free[:n-1]
		if cap(m) >= nw {
			return m[:nw]
		}
	}
	return make([]uint64, nw)
}

// grabCols returns n unopened column slots, reusing their buffers.
func (s *scratch) grabCols(n int) []colSlot {
	if cap(s.cols) < n {
		s.cols = make([]colSlot, n)
	}
	return s.cols[:n]
}

// grabWords returns an n-word buffer (contents undefined).
func (s *scratch) grabWords(n int) []uint64 {
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	s.words = s.words[:n]
	return s.words
}

func (s *scratch) grabInts(n int) []int64 {
	if cap(s.ints) < n {
		s.ints = make([]int64, n)
	}
	s.ints = s.ints[:n]
	return s.ints
}

func (s *scratch) grabFloats(n int) []float64 {
	if cap(s.floats) < n {
		s.floats = make([]float64, n)
	}
	s.floats = s.floats[:n]
	return s.floats
}

func (s *scratch) grabOffs(n int) ([]int32, []int32) {
	if cap(s.offs) < n {
		s.offs = make([]int32, n)
		s.lens = make([]int32, n)
	}
	s.offs, s.lens = s.offs[:n], s.lens[:n]
	return s.offs, s.lens
}

// grabSlots returns an n-entry group-slot buffer (contents undefined).
func (s *scratch) grabSlots(n int) []int32 {
	if cap(s.slots) < n {
		s.slots = make([]int32, n)
	}
	s.slots = s.slots[:n]
	return s.slots
}

// grabLG returns an n-entry local→global code translation buffer
// (contents undefined).
func (s *scratch) grabLG(n int) []int32 {
	if cap(s.lg) < n {
		s.lg = make([]int32, n)
	}
	s.lg = s.lg[:n]
	return s.lg
}

// grabMember returns a zeroed n-bit set.
func (s *scratch) grabMember(nbits int) []uint64 {
	nw := (nbits + 63) / 64
	if cap(s.member) < nw {
		s.member = make([]uint64, nw)
	}
	s.member = s.member[:nw]
	for i := range s.member {
		s.member[i] = 0
	}
	return s.member
}
