package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file holds the row-order fold: the one pass over an alias's
// survivors, in ascending global row order over the base table's decoded
// vectors, that computes all its aggregates when the backend's fold
// declines any (floats, overflow-risk sums, float group columns, group
// dictionaries wider than block.MaxGroupSlots), and every fold on the
// reference path. It decodes the survivor bitmap a chunk at a time into a
// selection vector (full words copy as runs), gives each survivor a slot —
// 0 when ungrouped, a dictionary column's code+1 (NULL is 0), a float
// group column's first-seen slot, every NaN sharing one — and feeds the
// chunk to one typed loop per aggregate over per-slot arrays.
//
// Group output order is deterministic everywhere: the NULL group first,
// then groups ascending by value, a float NaN group last (the PostgreSQL
// convention). Dictionary codes are ranks, so for them that is ascending
// slot order, and the backend and row-order folds enumerate groups
// identically.

// GroupValue is one group's slice of a grouped aggregate: the group key
// (Null for rows whose grouping value is null) and the aggregate folded
// over that group's survivors.
type GroupValue struct {
	Key   value.Value
	Value value.Value
}

// foldChunkWords is how many survivor-bitmap words the row-order pass
// decodes into one selection vector.
const foldChunkWords = 16

// slotter assigns survivors their accumulator slots and counts the
// survivors of each slot (COUNT(*) and group presence).
type slotter struct {
	rows  []int64
	dict  *relation.ColumnDict // slot = code+1
	flt   []float64            // float group column, slot by first sight
	nulls []bool
	keys  []float64 // float key per slot; keys[0] is the NULL slot's
	slot  map[float64]int32
	nan   int32 // the NaN group's slot, 0 until one is seen
}

// newSlotter returns the slotter for grouping table's tbl by gb.
func (e *Engine) newSlotter(table string, tbl *relation.Table, gb workload.GroupBy) (*slotter, error) {
	if gb.IsZero() {
		return &slotter{rows: make([]int64, 1)}, nil
	}
	if dict := e.groupDictFor(table, gb.Column); dict != nil {
		return &slotter{rows: make([]int64, dict.NumCodes()+1), dict: dict}, nil
	}
	gci, ok := tbl.Schema().ColumnIndex(gb.Column)
	if !ok {
		return nil, fmt.Errorf("engine: group by %s: table %q has no column %q",
			gb, tbl.Schema().Table(), gb.Column)
	}
	// A float group column gets no group dictionary (groupDictFor).
	return &slotter{rows: make([]int64, 1), flt: tbl.Floats(gci), nulls: tbl.Nulls(gci),
		keys: make([]float64, 1), slot: map[float64]int32{}}, nil
}

// assign writes each selected row's slot into slots (left all zero when
// ungrouped) and counts it.
func (g *slotter) assign(sel, slots []int32) {
	switch {
	case g.dict != nil:
		for j, r := range sel {
			s := g.dict.Code(int(r)) + 1 // -1 (null) → slot 0
			slots[j] = s
			g.rows[s]++
		}
	case g.flt != nil:
		for j, r := range sel {
			s := int32(0)
			if g.nulls == nil || !g.nulls[r] {
				s = g.floatSlot(g.flt[r])
			}
			slots[j] = s
			g.rows[s]++
		}
	default:
		g.rows[0] += int64(len(sel))
	}
}

// floatSlot returns v's slot, opening one on first sight. ±0 compare equal
// and share the slot of the first seen; every NaN shares one slot.
func (g *slotter) floatSlot(v float64) int32 {
	if v != v {
		if g.nan == 0 {
			g.nan = g.open(v)
		}
		return g.nan
	}
	s, ok := g.slot[v]
	if !ok {
		s = g.open(v)
		g.slot[v] = s
	}
	return s
}

func (g *slotter) open(v float64) int32 {
	g.keys, g.rows = append(g.keys, v), append(g.rows, 0)
	return int32(len(g.keys) - 1)
}

// live returns the slots that hold survivors in output order: NULL first,
// then ascending values, NaN last.
func (g *slotter) live() []int {
	var live []int
	for s, n := range g.rows {
		if n > 0 {
			live = append(live, s)
		}
	}
	if g.flt != nil {
		rest := live
		if len(rest) > 0 && rest[0] == 0 {
			rest = rest[1:]
		}
		sort.Slice(rest, func(a, b int) bool {
			x, y := g.keys[rest[a]], g.keys[rest[b]]
			return x < y || (x == x && y != y)
		})
	}
	return live
}

// key returns slot's group key.
func (g *slotter) key(slot int) value.Value {
	switch {
	case slot == 0:
		return value.Null
	case g.dict != nil:
		return g.dict.Value(int32(slot - 1))
	default:
		return value.Float(g.keys[slot])
	}
}

// slotAcc is one aggregate's per-slot state in the row-order pass: cnt
// counts non-null rows (a column without nulls has the slot's rows); the
// array of the column's kind holds the SUM, MIN or MAX.
type slotAcc struct {
	spec     workload.Aggregate
	kind     value.Kind
	nulls    []bool
	ints     []int64
	floats   []float64
	strs     []string
	cnt, i   []int64
	f        []float64
	s        []string
	overflow bool
}

// grow extends the state to n slots.
func (a *slotAcc) grow(n int) {
	a.cnt = extend(a.cnt, n)
	switch a.kind {
	case value.KindInt:
		a.i = extend(a.i, n)
	case value.KindFloat:
		a.f = extend(a.f, n)
	case value.KindString:
		a.s = extend(a.s, n)
	}
}

func extend[T any](s []T, n int) []T { return append(s, make([]T, max(0, n-len(s)))...) }

// fold runs the aggregate's typed loop over one chunk. COUNT(*) reads the
// slotter's rows and an overflowed sum stops folding.
func (a *slotAcc) fold(sel, slots []int32) {
	switch {
	case a.spec.Column == "" || a.overflow || (a.nulls == nil && a.spec.Op == workload.AggCount):
	case a.spec.Op == workload.AggCount:
		for j, r := range sel {
			if !a.nulls[r] {
				a.cnt[slots[j]]++
			}
		}
	case a.spec.Op == workload.AggMin || a.spec.Op == workload.AggMax:
		max := a.spec.Op == workload.AggMax
		switch a.kind {
		case value.KindInt:
			foldExtreme(sel, slots, a.ints, a.nulls, a.i, a.cnt, max)
		case value.KindFloat:
			foldExtreme(sel, slots, a.floats, a.nulls, a.f, a.cnt, max)
		default:
			foldExtreme(sel, slots, a.strs, a.nulls, a.s, a.cnt, max)
		}
	case a.kind == value.KindInt:
		a.overflow = !foldIntSum(sel, slots, a.ints, a.nulls, a.i, a.cnt)
	default:
		foldFloatSum(sel, slots, a.floats, a.nulls, a.f, a.cnt)
	}
}

// foldIntSum folds a checked int64 SUM, counting rows only around nulls;
// false means a slot's sum overflowed.
func foldIntSum(sel, slots []int32, vals []int64, nulls []bool, sum, cnt []int64) bool {
	for j, r := range sel {
		s, v := slots[j], vals[r]
		if nulls != nil {
			if nulls[r] {
				continue
			}
			cnt[s]++
		}
		t := sum[s] + v
		if (sum[s]^t)&(v^t) < 0 { // both addends' signs differ from the result's
			return false
		}
		sum[s] = t
	}
	return true
}

// foldFloatSum folds a float SUM, each slot in ascending row order,
// counting rows only around nulls.
func foldFloatSum(sel, slots []int32, vals []float64, nulls []bool, sum []float64, cnt []int64) {
	for j, r := range sel {
		s := slots[j]
		if nulls != nil {
			if nulls[r] {
				continue
			}
			cnt[s]++
		}
		sum[s] += vals[r]
	}
}

// foldExtreme folds MIN (max false) or MAX into m: the first non-null row
// of a slot sets it and a later one replaces it only when strictly better,
// so a float NaN is kept only as a slot's first value.
func foldExtreme[T cmp.Ordered](sel, slots []int32, vals []T, nulls []bool, m []T, cnt []int64, max bool) {
	for j, r := range sel {
		if nulls != nil && nulls[r] {
			continue
		}
		s, v := slots[j], vals[r]
		if cnt[s] == 0 || (max && v > m[s]) || (!max && v < m[s]) {
			m[s] = v
		}
		cnt[s]++
	}
}

// value finalizes slot's aggregate; rows is the slot's survivor count.
func (a *slotAcc) value(slot int, rows int64) value.Value {
	if a.spec.Column == "" {
		return value.Int(rows)
	}
	n := a.cnt[slot]
	if a.nulls == nil { // sums and counts count only around nulls
		n = rows
	}
	if a.kind != value.KindFloat || a.spec.Op == workload.AggCount {
		st := block.AggState{Count: n, Seen: n > 0}
		if a.kind == value.KindString {
			st.MinS, st.MaxS = a.s[slot], a.s[slot]
		} else if a.kind == value.KindInt {
			st.Sum, st.MinI, st.MaxI = a.i[slot], a.i[slot], a.i[slot]
		}
		return finalizeAgg(a.spec, a.kind, &st)
	}
	switch {
	case n == 0:
		return value.Null
	case a.spec.Op == workload.AggAvg:
		return value.Float(a.f[slot] / float64(n))
	default:
		return value.Float(a.f[slot])
	}
}

// foldMaterialized computes specs over the survivors of set in the one
// row-order pass, grouped by gb (zero = ungrouped, the one-slot case).
// Integer sums are checked; when several overflow, the error names the
// first in declaration order.
func (e *Engine) foldMaterialized(table string, tbl *relation.Table, set bitmap.Dense,
	gb workload.GroupBy, specs []workload.Aggregate) ([]AggValue, error) {

	g, err := e.newSlotter(table, tbl, gb)
	if err != nil {
		return nil, err
	}
	accs := make([]slotAcc, len(specs))
	for k, spec := range specs {
		ci, kind, err := aggColumnKind(tbl, spec)
		if err != nil {
			return nil, err
		}
		a := &accs[k]
		a.spec, a.kind = spec, kind
		if ci >= 0 {
			a.nulls = tbl.Nulls(ci)
			switch kind {
			case value.KindInt:
				a.ints = tbl.Ints(ci)
			case value.KindFloat:
				a.floats = tbl.Floats(ci)
			default:
				a.strs = tbl.Strings(ci)
			}
		}
	}
	var sel, slots [foldChunkWords * 64]int32
	for w0 := 0; w0 < len(set); w0 += foldChunkWords {
		n := 0
		for w, word := range set[w0:min(w0+foldChunkWords, len(set))] {
			base := int32((w0 + w) << 6)
			if word == ^uint64(0) {
				for j := range sel[n : n+64] {
					sel[n+j] = base + int32(j)
				}
				n += 64
				continue
			}
			for ; word != 0; word &= word - 1 {
				sel[n] = base + int32(bits.TrailingZeros64(word))
				n++
			}
		}
		if n == 0 {
			continue
		}
		g.assign(sel[:n], slots[:n])
		for k := range accs {
			accs[k].grow(len(g.rows))
			accs[k].fold(sel[:n], slots[:n])
		}
	}
	for k := range accs {
		accs[k].grow(len(g.rows))
		if accs[k].overflow {
			return nil, fmt.Errorf("engine: aggregate %s: int64 sum overflow", specs[k])
		}
	}
	return slotAggs(gb, specs, g.live(), g.key, func(k, slot int) value.Value {
		return accs[k].value(slot, g.rows[slot])
	}), nil
}

// slotAggs assembles specs' AggValues from per-slot results: slot 0 when
// ungrouped, else one group per live slot, in the order given.
func slotAggs(gb workload.GroupBy, specs []workload.Aggregate, live []int,
	key func(slot int) value.Value, val func(k, slot int) value.Value) []AggValue {

	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		if gb.IsZero() {
			out[k] = AggValue{Spec: spec, Value: val(k, 0)}
			continue
		}
		av := AggValue{Spec: spec, Value: value.Null, GroupBy: gb, Groups: make([]GroupValue, 0, len(live))}
		for _, slot := range live {
			av.Groups = append(av.Groups, GroupValue{Key: key(slot), Value: val(k, slot)})
		}
		out[k] = av
	}
	return out
}
