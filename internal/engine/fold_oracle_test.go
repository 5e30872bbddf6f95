package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file keeps the row-at-a-time fold that the row-order pass
// (grouped.go) replaced, as the oracle the fold tests compare it with:
// a per-row closure over per-group heap accumulators, one boxed-key map
// for group columns without a dictionary, and a separate flat loop per
// aggregate. It follows the row-order pass's two rules: every NaN group
// key forms one group, sorted after every number, and aggregates fold one
// at a time in declaration order, so an overflow error names the first
// aggregate that overflows.

// oracleFold computes specs over the survivors of set the way the
// row-order pass must: bit for bit, errors included.
func oracleFold(e *Engine, table string, tbl *relation.Table, set bitmap.Dense,
	gb workload.GroupBy, specs []workload.Aggregate) ([]AggValue, error) {

	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		if gb.IsZero() {
			v, err := oracleFoldFlat(tbl, set, spec)
			if err != nil {
				return nil, err
			}
			out[k] = AggValue{Spec: spec, Value: v}
			continue
		}
		avs, err := oracleFoldGrouped(e, table, tbl, set, gb, specs[k:k+1])
		if err != nil {
			return nil, err
		}
		out[k] = avs[0]
	}
	return out, nil
}

// oracleFoldFlat computes spec over the rows of tbl set in the survivor
// bitmap, one row at a time. Iteration is ascending global row order,
// which is the defining accumulation order for float results. Integer sums
// use checked addition and error out deterministically on overflow.
func oracleFoldFlat(tbl *relation.Table, set bitmap.Dense, spec workload.Aggregate) (value.Value, error) {
	col, err := aggColumnKind(tbl, spec)
	if err != nil {
		return value.Null, err
	}
	ci, kind := col.ord, col.kind
	if ci < 0 { // COUNT(*): surviving rows, nulls included
		return value.Int(int64(set.Count())), nil
	}
	nulls := tbl.Nulls(ci)
	var st block.AggState
	switch kind {
	case value.KindInt:
		ints := tbl.Ints(ci)
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				v := ints[r]
				if spec.Op == workload.AggSum || spec.Op == workload.AggAvg {
					if (v > 0 && st.Sum > math.MaxInt64-v) || (v < 0 && st.Sum < math.MinInt64-v) {
						return value.Null, fmt.Errorf("engine: aggregate %s: int64 sum overflow", spec)
					}
				}
				st.FoldInt(v)
			}
		}
		return finalizeAgg(spec, kind, &st), nil
	case value.KindFloat:
		floats := tbl.Floats(ci)
		var fsum, fmin, fmax float64
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				v := floats[r]
				fsum += v
				if !st.Seen || v < fmin {
					fmin = v
				}
				if !st.Seen || v > fmax {
					fmax = v
				}
				st.Seen = true
				st.Count++
			}
		}
		return oracleFinalizeFloat(spec, &st, fsum, fmin, fmax), nil
	default: // strings
		strs := tbl.Strings(ci)
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if nulls != nil && nulls[r] {
					continue
				}
				st.FoldStr(strs[r])
			}
		}
		return finalizeAgg(spec, kind, &st), nil
	}
}

// oracleFinalizeFloat turns a float fold's state and scratch into the
// aggregate's SQL value.
func oracleFinalizeFloat(spec workload.Aggregate, st *block.AggState, fsum, fmin, fmax float64) value.Value {
	switch spec.Op {
	case workload.AggCount:
		return value.Int(st.Count)
	case workload.AggMin:
		if !st.Seen {
			return value.Null
		}
		return value.Float(fmin)
	case workload.AggMax:
		if !st.Seen {
			return value.Null
		}
		return value.Float(fmax)
	case workload.AggAvg:
		if st.Count == 0 {
			return value.Null
		}
		return value.Float(fsum / float64(st.Count))
	default: // AggSum
		if st.Count == 0 {
			return value.Null
		}
		return value.Float(fsum)
	}
}

// groupAccum is one group's materialized fold state: the survivor count
// (COUNT(*)), per-spec int/string states, and per-spec float scratch
// (allocated only when the query aggregates a float column).
type groupAccum struct {
	rows int64
	sts  []block.AggState
	fsum []float64
	fmin []float64
	fmax []float64
}

func newGroupAccum(nspecs int, hasFloat bool) *groupAccum {
	acc := &groupAccum{sts: make([]block.AggState, nspecs)}
	if hasFloat {
		acc.fsum = make([]float64, nspecs)
		acc.fmin = make([]float64, nspecs)
		acc.fmax = make([]float64, nspecs)
	}
	return acc
}

// oracleFoldGrouped is the row-at-a-time grouped fold: survivors
// accumulate into per-group states indexed by the grouping column's
// dictionary slot when one exists (so group enumeration order matches
// foldAlias's dense slots exactly), or hashed on the boxed group value
// otherwise (float group columns). Per-spec fold semantics — null skipping, checked int
// overflow, ascending-row float accumulation order — are identical to the
// flat materialized fold.
func oracleFoldGrouped(e *Engine, table string, tbl *relation.Table, set bitmap.Dense,
	gb workload.GroupBy, specs []workload.Aggregate) ([]AggValue, error) {

	cis := make([]int, len(specs))
	kinds := make([]value.Kind, len(specs))
	hasFloat := false
	for k, spec := range specs {
		col, err := aggColumnKind(tbl, spec)
		if err != nil {
			return nil, err
		}
		ci, kind := col.ord, col.kind
		cis[k], kinds[k] = ci, kind
		if ci >= 0 && kind == value.KindFloat {
			hasFloat = true
		}
	}
	gci, ok := tbl.Schema().ColumnIndex(gb.Column)
	if !ok {
		return nil, fmt.Errorf("engine: group by %s: table %q has no column %q",
			gb, tbl.Schema().Table(), gb.Column)
	}
	gkind := tbl.Schema().Column(gci).Type
	gnulls := tbl.Nulls(gci)
	dict := e.groupDictFor(table, gb.Column)

	// Per-spec column accessors, resolved once.
	type colAccess struct {
		nulls  []bool
		ints   []int64
		floats []float64
		strs   []string
	}
	cols := make([]colAccess, len(specs))
	for k, ci := range cis {
		if ci < 0 {
			continue
		}
		cols[k].nulls = tbl.Nulls(ci)
		switch kinds[k] {
		case value.KindInt:
			cols[k].ints = tbl.Ints(ci)
		case value.KindFloat:
			cols[k].floats = tbl.Floats(ci)
		default:
			cols[k].strs = tbl.Strings(ci)
		}
	}
	foldRow := func(acc *groupAccum, r int) error {
		acc.rows++
		for k, spec := range specs {
			if cis[k] < 0 {
				continue // COUNT(*) reads acc.rows
			}
			c := &cols[k]
			if c.nulls != nil && c.nulls[r] {
				continue
			}
			st := &acc.sts[k]
			switch kinds[k] {
			case value.KindInt:
				v := c.ints[r]
				if spec.Op == workload.AggSum || spec.Op == workload.AggAvg {
					if (v > 0 && st.Sum > math.MaxInt64-v) || (v < 0 && st.Sum < math.MinInt64-v) {
						return fmt.Errorf("engine: aggregate %s: int64 sum overflow", spec)
					}
				}
				st.FoldInt(v)
			case value.KindFloat:
				v := c.floats[r]
				acc.fsum[k] += v
				if !st.Seen || v < acc.fmin[k] {
					acc.fmin[k] = v
				}
				if !st.Seen || v > acc.fmax[k] {
					acc.fmax[k] = v
				}
				st.Seen = true
				st.Count++
			default:
				st.FoldStr(c.strs[r])
			}
		}
		return nil
	}

	// Accumulate, then order groups: dictionary codes are ranks, so slot
	// order is value order and matches foldAlias's dense slots; boxed
	// keys sort by value.Compare (Null first).
	type orderedGroup struct {
		key value.Value
		acc *groupAccum
	}
	var ordered []orderedGroup
	if dict != nil {
		// One accumulator per dictionary slot, created on its first row.
		accums := make([]*groupAccum, dict.NumCodes()+1)
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				slot := dict.Code(r) + 1 // -1 (null) → slot 0
				acc := accums[slot]
				if acc == nil {
					acc = newGroupAccum(len(specs), hasFloat)
					accums[slot] = acc
				}
				if err := foldRow(acc, r); err != nil {
					return nil, err
				}
			}
		}
		for slot, acc := range accums {
			if acc == nil {
				continue
			}
			key := value.Null
			if slot > 0 {
				key = dict.Value(int32(slot - 1))
			}
			ordered = append(ordered, orderedGroup{key: key, acc: acc})
		}
	} else {
		var gi []int64
		var gf []float64
		var gstr []string
		switch gkind {
		case value.KindInt:
			gi = tbl.Ints(gci)
		case value.KindFloat:
			gf = tbl.Floats(gci)
		default:
			gstr = tbl.Strings(gci)
		}
		accums := map[value.Value]*groupAccum{}
		var nanAcc *groupAccum // NaN ≠ NaN as a map key: every NaN row shares this group
		var nanKey value.Value
		for w := range set {
			word := set[w]
			for word != 0 {
				r := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				key := value.Null
				if gnulls == nil || !gnulls[r] {
					switch gkind {
					case value.KindInt:
						key = value.Int(gi[r])
					case value.KindFloat:
						key = value.Float(gf[r])
					default:
						key = value.String(gstr[r])
					}
				}
				var acc *groupAccum
				if key.Kind() == value.KindFloat && math.IsNaN(key.Float()) {
					if nanAcc == nil {
						nanAcc, nanKey = newGroupAccum(len(specs), hasFloat), key
					}
					acc = nanAcc
				} else if acc = accums[key]; acc == nil {
					acc = newGroupAccum(len(specs), hasFloat)
					accums[key] = acc
				}
				if err := foldRow(acc, r); err != nil {
					return nil, err
				}
			}
		}
		ordered = make([]orderedGroup, 0, len(accums))
		for key, acc := range accums {
			ordered = append(ordered, orderedGroup{key: key, acc: acc})
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].key.Less(ordered[j].key) })
		if nanAcc != nil {
			ordered = append(ordered, orderedGroup{key: nanKey, acc: nanAcc})
		}
	}

	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		av := AggValue{Spec: spec, Value: value.Null, GroupBy: gb,
			Groups: make([]GroupValue, 0, len(ordered))}
		for _, g := range ordered {
			var v value.Value
			switch {
			case cis[k] < 0:
				v = value.Int(g.acc.rows)
			case kinds[k] == value.KindFloat:
				v = oracleFinalizeFloat(spec, &g.acc.sts[k], g.acc.fsum[k], g.acc.fmin[k], g.acc.fmax[k])
			default:
				v = finalizeAgg(spec, kinds[k], &g.acc.sts[k])
			}
			av.Groups = append(av.Groups, GroupValue{Key: g.key, Value: v})
		}
		out[k] = av
	}
	return out, nil
}
