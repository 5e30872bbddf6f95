package engine

import "mto/internal/workload"

// ReorderAggregates returns cached's values rearranged to match the
// declaration order of specs, or false when the two sets do not describe
// the same aggregates. A result cache keyed on workload.Query.Normalize
// needs this on a hit: the key sorts aggregate specs (declaration order
// cannot change any value), but Result.Aggregates is contractually in the
// requesting query's declaration order, so the cache restores that order
// before handing the copy out. Specs match by struct equality, so nothing
// is rendered on a hit; two specs that render alike but differ in a field
// do not match, and the cache treats that as a miss. Duplicate specs pair
// up positionally — their values are equal by construction, so any
// pairing is correct.
//
// The returned slice shares the AggValue structs' Groups slices with
// cached; callers that must not alias the cache deep-copy first.
func ReorderAggregates(cached []AggValue, specs []workload.Aggregate) ([]AggValue, bool) {
	if len(cached) != len(specs) {
		return nil, false
	}
	if len(cached) == 0 {
		return nil, true
	}
	out := make([]AggValue, len(specs))
	used := make([]bool, len(cached))
	for i, want := range specs {
		found := false
		for j := range cached {
			if !used[j] && cached[j].Spec == want {
				out[i] = cached[j]
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
