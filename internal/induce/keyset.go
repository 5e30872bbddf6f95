// Package induce implements join-induced predicates (§4.1 of the paper):
// the logical form (a source cut plus an induction path), the literal form
// (an IN set over the target table's join column, evaluated via a chain of
// semi joins and compressed with roaring bitmaps), cardinality adjustment
// for sampled optimization (§4.2), and incremental maintenance under data
// changes (§5.2).
package induce

import (
	"mto/internal/bitmap"
	"mto/internal/value"
)

// keySet is a set of join-key values. Integer keys in [0, 2^32) live in a
// roaring bitmap (the paper compresses IN lists as Roaring Bitmaps,
// §4.1.2); integers outside that range spill to a map, and string keys use
// a map.
//
// Kind contract: join keys are ints or strings (the engine's join
// dictionaries also take floats; this set does not yet).
// add/remove/contains silently drop every other kind (null never matches
// an equijoin, so dropping nulls is the correct semi-join semantics);
// columns whose declared kind is unsupported (e.g.
// float join keys) are rejected with an error at EvaluateAll/ApplyInsert/
// ApplyDelete time, before any silent drop could produce an always-empty —
// and therefore wrong — literal cut.
type keySet struct {
	bm       *bitmap.Bitmap
	overflow map[int64]struct{}
	strs     map[string]struct{}

	// shared marks a set materialized once by batched evaluation and
	// referenced from the stages of several predicates (prefix sharing).
	// Mutators must go through (*Predicate).mutableStage, which clones a
	// shared set on first mutation so incremental maintenance of one
	// predicate never corrupts its siblings.
	shared bool
}

func newKeySet() *keySet { return &keySet{bm: bitmap.New()} }

// clone returns a private deep copy of s (clears the shared mark).
func (s *keySet) clone() *keySet {
	out := &keySet{bm: s.bm.Clone()}
	if s.overflow != nil {
		out.overflow = make(map[int64]struct{}, len(s.overflow))
		for k := range s.overflow {
			out.overflow[k] = struct{}{}
		}
	}
	if s.strs != nil {
		out.strs = make(map[string]struct{}, len(s.strs))
		for k := range s.strs {
			out.strs[k] = struct{}{}
		}
	}
	return out
}

func inBitmapRange(v int64) bool { return v >= 0 && v <= 1<<32-1 }

// denseSnapshot materializes the bitmap-resident members of s as a flat
// bitset sized to the largest member, for bulk probing. Returns nil when the
// set is empty or the bitset would exceed budgetWords — the caller then
// probes the compressed form directly. Overflow (out-of-range) integers are
// never in the snapshot; callers must still consult containsInt for values
// the snapshot cannot answer.
func (s *keySet) denseSnapshot(budgetWords int) bitmap.Dense {
	max, ok := s.bm.Max()
	if !ok {
		return nil
	}
	if int(max>>6)+1 > budgetWords {
		return nil
	}
	d := bitmap.NewDense(int(max) + 1)
	s.bm.FillDense(d)
	return d
}

func (s *keySet) addInt(v int64) {
	if inBitmapRange(v) {
		s.bm.Add(uint32(v))
		return
	}
	if s.overflow == nil {
		s.overflow = map[int64]struct{}{}
	}
	s.overflow[v] = struct{}{}
}

func (s *keySet) removeInt(v int64) {
	if inBitmapRange(v) {
		s.bm.Remove(uint32(v))
		return
	}
	delete(s.overflow, v)
}

func (s *keySet) containsInt(v int64) bool {
	if inBitmapRange(v) {
		return s.bm.Contains(uint32(v))
	}
	_, ok := s.overflow[v]
	return ok
}

func (s *keySet) addStr(v string) {
	if s.strs == nil {
		s.strs = map[string]struct{}{}
	}
	s.strs[v] = struct{}{}
}

func (s *keySet) removeStr(v string) { delete(s.strs, v) }

func (s *keySet) containsStr(v string) bool {
	_, ok := s.strs[v]
	return ok
}

// add inserts a typed value; nulls are ignored (equijoins never match null).
func (s *keySet) add(v value.Value) {
	switch v.Kind() {
	case value.KindInt:
		s.addInt(v.Int())
	case value.KindString:
		s.addStr(v.Str())
	}
}

// remove deletes a typed value.
func (s *keySet) remove(v value.Value) {
	switch v.Kind() {
	case value.KindInt:
		s.removeInt(v.Int())
	case value.KindString:
		s.removeStr(v.Str())
	}
}

// contains reports membership of a typed value; null is never a member.
func (s *keySet) contains(v value.Value) bool {
	switch v.Kind() {
	case value.KindInt:
		return s.containsInt(v.Int())
	case value.KindString:
		return s.containsStr(v.Str())
	default:
		return false
	}
}

// card returns the number of keys.
func (s *keySet) card() int {
	return s.bm.Cardinality() + len(s.overflow) + len(s.strs)
}

// optimize compacts the bitmap representation after bulk construction.
func (s *keySet) optimize() { s.bm.Optimize() }

// memBytes estimates the in-memory footprint (Table 2's memory column).
func (s *keySet) memBytes() int {
	n := s.bm.SizeBytes()
	n += 16 * len(s.overflow)
	for k := range s.strs {
		n += 16 + len(k)
	}
	return n
}
